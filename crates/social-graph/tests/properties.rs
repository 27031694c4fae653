//! Property-based tests for the social-graph substrate.

use proptest::prelude::*;
use proptest::test_runner::TestCaseError;
use social_graph::csr::Csr;
use social_graph::split::k_fold_indices;
use social_graph::{
    sample::subsample, DocId, Document, SocialGraph, SocialGraphBuilder, UserId, WordId,
};

/// Strategy: a random valid graph description.
#[allow(clippy::type_complexity)]
fn graph_strategy() -> impl Strategy<
    Value = (
        usize,                     // n_users
        usize,                     // vocab
        Vec<(u32, Vec<u32>, u32)>, // docs: (author, words, t)
        Vec<(u32, u32)>,           // friendships
        Vec<(u32, u32)>,           // diffusions (doc idx pairs)
    ),
> {
    (2usize..20, 2usize..30).prop_flat_map(|(n_users, vocab)| {
        let docs = prop::collection::vec(
            (
                0..n_users as u32,
                prop::collection::vec(0..vocab as u32, 1..6),
                0u32..8,
            ),
            1..30,
        );
        docs.prop_flat_map(move |docs| {
            let n_docs = docs.len();
            let friends = prop::collection::vec((0..n_users as u32, 0..n_users as u32), 0..40);
            let diffs = prop::collection::vec((0..n_docs as u32, 0..n_docs as u32), 0..20);
            (Just(n_users), Just(vocab), Just(docs), friends, diffs)
        })
    })
}

fn build(
    n_users: usize,
    vocab: usize,
    docs: &[(u32, Vec<u32>, u32)],
    friends: &[(u32, u32)],
    diffs: &[(u32, u32)],
) -> social_graph::SocialGraph {
    let mut b = SocialGraphBuilder::new(n_users, vocab);
    for (author, words, t) in docs {
        b.add_document(Document::new(
            UserId(*author),
            words.iter().map(|&w| WordId(w)).collect(),
            *t,
        ));
    }
    for &(u, v) in friends.iter().filter(|(u, v)| u != v) {
        b.add_friendship(UserId(u), UserId(v));
    }
    for &(i, j) in diffs.iter().filter(|(i, j)| i != j) {
        b.add_diffusion(
            social_graph::DocId(i),
            social_graph::DocId(j),
            docs[i as usize].2,
        );
    }
    b.build().expect("strategy only produces valid graphs")
}

/// Strategy: a valid graph description with every row shape a sweep
/// meets. The last user writes nothing, the last document is in no
/// diffusion link, the first friendship (if any) is repeated once in
/// each direction, and diffusion times may pass every document time.
#[allow(clippy::type_complexity)]
fn row_shape_strategy() -> impl Strategy<
    Value = (
        usize,                // n_users
        Vec<(u32, u32)>,      // docs: (author, t)
        Vec<(u32, u32)>,      // friendships, no self-loops
        Vec<(u32, u32, u32)>, // diffusions: (src, dst, at), no self-loops
    ),
> {
    (2usize..16, 3usize..24).prop_flat_map(|(n_users, n_docs)| {
        let (users, linked) = (n_users as u32, n_docs as u32 - 1);
        let docs = prop::collection::vec((0..users - 1, 0u32..8), n_docs);
        let friends = prop::collection::vec((0..users, 1..users), 0..40).prop_map(move |pairs| {
            let mut links: Vec<(u32, u32)> = pairs
                .into_iter()
                .map(|(u, k)| (u, (u + k) % users))
                .collect();
            if let Some(&(u, v)) = links.first() {
                links.extend([(u, v), (v, u)]);
            }
            links
        });
        let diffs =
            prop::collection::vec((0..linked, 1..linked, 0u32..12), 0..30).prop_map(move |links| {
                links
                    .into_iter()
                    .map(|(i, k, t)| (i, (i + k) % linked, t))
                    .collect::<Vec<_>>()
            });
        (Just(n_users), docs, friends, diffs)
    })
}

/// Every neighbourhood view of `g` equals a plain scan of `g`'s own
/// document, friendship and diffusion lists, element for element and in
/// list order.
fn views_match_scans(g: &SocialGraph) -> Result<(), TestCaseError> {
    for u in 0..g.n_users() as u32 {
        let user = UserId(u);
        let docs: Vec<DocId> = (0..g.n_docs() as u32)
            .map(DocId)
            .filter(|&d| g.doc(d).author == user)
            .collect();
        prop_assert_eq!(g.docs_of(user).collect::<Vec<_>>(), docs.clone());
        prop_assert_eq!(g.n_docs_of(user), docs.len());

        let links: Vec<u32> = (0..g.friendships().len() as u32)
            .filter(|&i| {
                let l = g.friendships()[i as usize];
                l.from == user || l.to == user
            })
            .collect();
        let neighbours: Vec<UserId> = links
            .iter()
            .map(|&i| {
                let l = g.friendships()[i as usize];
                if l.from == user {
                    l.to
                } else {
                    l.from
                }
            })
            .collect();
        prop_assert_eq!(g.friend_links_of(user), &links[..]);
        prop_assert_eq!(g.friend_neighbors_of(user).collect::<Vec<_>>(), neighbours);
        prop_assert_eq!(g.friend_degree(user), links.len());
        let out = g.friendships().iter().filter(|l| l.from == user).count();
        let inn = g.friendships().iter().filter(|l| l.to == user).count();
        prop_assert_eq!(g.followees(user) as usize, out);
        prop_assert_eq!(g.followers(user) as usize, inn);
    }
    for d in 0..g.n_docs() as u32 {
        let doc = DocId(d);
        let links: Vec<u32> = (0..g.diffusions().len() as u32)
            .filter(|&i| {
                let l = g.diffusions()[i as usize];
                l.src == doc || l.dst == doc
            })
            .collect();
        prop_assert_eq!(g.diffusion_links_of(doc), &links[..]);
    }
    let last = g
        .docs()
        .iter()
        .map(|d| d.timestamp)
        .chain(g.diffusions().iter().map(|l| l.at))
        .max();
    prop_assert_eq!(g.n_timestamps(), last.map_or(1, |t| t + 1));
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn adjacency_is_consistent_with_edge_lists(
        (n_users, vocab, docs, friends, diffs) in graph_strategy()
    ) {
        let g = build(n_users, vocab, &docs, &friends, &diffs);
        // Degree sums equal twice the link count (each link incident to
        // exactly two users).
        let deg_sum: usize = (0..n_users).map(|u| g.friend_degree(UserId(u as u32))).sum();
        prop_assert_eq!(deg_sum, 2 * g.friendships().len());
        // Followers/followees sum to link count.
        let followers: u32 = (0..n_users).map(|u| g.followers(UserId(u as u32))).sum();
        let followees: u32 = (0..n_users).map(|u| g.followees(UserId(u as u32))).sum();
        prop_assert_eq!(followers as usize, g.friendships().len());
        prop_assert_eq!(followees as usize, g.friendships().len());
        // Diffusion incidences sum to twice the diffusion count.
        let inc: usize = (0..g.n_docs())
            .map(|d| g.diffusion_links_of(social_graph::DocId(d as u32)).len())
            .sum();
        prop_assert_eq!(inc, 2 * g.diffusions().len());
        // Docs-per-user partition the documents.
        let doc_sum: usize = (0..n_users).map(|u| g.n_docs_of(UserId(u as u32))).sum();
        prop_assert_eq!(doc_sum, g.n_docs());
    }

    #[test]
    fn stats_count_everything(
        (n_users, vocab, docs, friends, diffs) in graph_strategy()
    ) {
        let g = build(n_users, vocab, &docs, &friends, &diffs);
        let s = g.stats();
        prop_assert_eq!(s.n_users, n_users);
        prop_assert_eq!(s.n_docs, docs.len());
        prop_assert_eq!(
            s.n_tokens,
            docs.iter().map(|(_, w, _)| w.len()).sum::<usize>()
        );
        prop_assert!(s.n_timestamps >= 1);
    }

    #[test]
    fn subsample_is_a_valid_subgraph(
        (n_users, vocab, docs, friends, diffs) in graph_strategy(),
        frac in 0.1f64..1.0,
        seed in 0u64..100,
    ) {
        let g = build(n_users, vocab, &docs, &friends, &diffs);
        let s = subsample(&g, frac, seed);
        prop_assert!(s.n_docs() <= g.n_docs());
        prop_assert!(s.friendships().len() <= g.friendships().len());
        prop_assert!(s.diffusions().len() <= g.diffusions().len());
        for l in s.diffusions() {
            prop_assert!(l.src.index() < s.n_docs());
            prop_assert!(l.dst.index() < s.n_docs());
            prop_assert_ne!(l.src, l.dst);
        }
    }

    #[test]
    fn graph_views_match_naive_scans(
        (n_users, docs, friends, diffs) in row_shape_strategy(),
        stride in 2usize..5,
        frac in 0.1f64..1.0,
        seed in 0u64..100,
    ) {
        let mut b = SocialGraphBuilder::new(n_users, 1);
        for &(author, t) in &docs {
            b.add_document(Document::new(UserId(author), vec![WordId(0)], t));
        }
        for &(u, v) in &friends {
            b.add_friendship(UserId(u), UserId(v));
        }
        for &(i, j, t) in &diffs {
            b.add_diffusion(DocId(i), DocId(j), t);
        }
        let g = b.build().expect("strategy only produces valid graphs");
        let authors: Vec<(u32, u32)> = g.docs().iter().map(|d| (d.author.0, d.timestamp)).collect();
        let links: Vec<(u32, u32)> = g.friendships().iter().map(|l| (l.from.0, l.to.0)).collect();
        let diffusions: Vec<(u32, u32, u32)> =
            g.diffusions().iter().map(|l| (l.src.0, l.dst.0, l.at)).collect();
        prop_assert_eq!(authors, docs);
        prop_assert_eq!(links, friends.clone());
        prop_assert_eq!(diffusions, diffs.clone());
        views_match_scans(&g)?;

        let kept = g.retain_friendships(|i| i % stride != 0);
        let want: Vec<(u32, u32)> = friends
            .iter()
            .enumerate()
            .filter(|(i, _)| i % stride != 0)
            .map(|(_, &l)| l)
            .collect();
        let links: Vec<(u32, u32)> = kept.friendships().iter().map(|l| (l.from.0, l.to.0)).collect();
        prop_assert_eq!(links, want);
        views_match_scans(&kept)?;

        let kept = g.retain_diffusions(|i| i % stride == 0);
        let want: Vec<(u32, u32, u32)> = diffs
            .iter()
            .enumerate()
            .filter(|(i, _)| i % stride == 0)
            .map(|(_, &l)| l)
            .collect();
        let diffusions: Vec<(u32, u32, u32)> =
            kept.diffusions().iter().map(|l| (l.src.0, l.dst.0, l.at)).collect();
        prop_assert_eq!(diffusions, want);
        views_match_scans(&kept)?;

        views_match_scans(&subsample(&g, frac, seed))?;
    }

    #[test]
    fn k_folds_partition(n in 1usize..200, k in 2usize..10, seed in 0u64..100) {
        let folds = k_fold_indices(n, k, seed);
        prop_assert_eq!(folds.len(), k);
        let mut all: Vec<usize> = folds.iter().flatten().copied().collect();
        all.sort_unstable();
        prop_assert_eq!(all, (0..n).collect::<Vec<_>>());
        // Fold sizes differ by at most one.
        let sizes: Vec<usize> = folds.iter().map(|f| f.len()).collect();
        let min = sizes.iter().min().unwrap();
        let max = sizes.iter().max().unwrap();
        prop_assert!(max - min <= 1);
    }

    #[test]
    fn csr_preserves_all_pairs(
        pairs in prop::collection::vec((0u32..15, 0u32..1000), 0..60)
    ) {
        let mut degrees = [0u32; 15];
        for &(node, _) in &pairs {
            degrees[node as usize] += 1;
        }
        let csr = Csr::scatter(degrees, &pairs, |&(node, _)| [node]);
        prop_assert_eq!(csr.total(), pairs.len());
        for node in 0..15 {
            let want: Vec<u32> = pairs
                .iter()
                .filter(|(n, _)| *n == node as u32)
                .map(|(_, p)| *p)
                .collect();
            let got: Vec<u32> = csr.row(node).iter().map(|&i| pairs[i as usize].1).collect();
            prop_assert_eq!(got, want);
        }
    }
}
