//! The immutable social graph and its validating builder.

use crate::csr::Csr;
use crate::document::Document;
use crate::error::GraphError;
use crate::ids::{DocId, UserId};
use crate::stats::GraphStats;

/// A directed friendship link `F_uv` (u follows v / u co-authors with v).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct FriendshipLink {
    /// Source user `u`.
    pub from: UserId,
    /// Target user `v`.
    pub to: UserId,
}

/// A directed, timestamped diffusion link `E^t_ij`: document `src`
/// diffuses (retweets / cites) document `dst` at time `at`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct DiffusionLink {
    /// The diffusing (new) document `i`.
    pub src: DocId,
    /// The diffused (original) document `j`.
    pub dst: DocId,
    /// Diffusion timestamp `t` (bucket index).
    pub at: u32,
}

/// Immutable social graph `G = (U, D, F, E)` with precomputed
/// neighbourhood indices: documents per user and, per user and per
/// document, the incident friendship and diffusion link ids, each row
/// in list order.
#[derive(Debug, Clone)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct SocialGraph {
    n_users: usize,
    vocab_size: usize,
    n_timestamps: u32,
    docs: Vec<Document>,
    user_docs: Csr,
    friendships: Vec<FriendshipLink>,
    friend_incident: Csr,
    diffusions: Vec<DiffusionLink>,
    diffusion_incident: Csr,
    out_degree: Vec<u32>,
    in_degree: Vec<u32>,
}

impl SocialGraph {
    /// Number of users `|U|`.
    pub fn n_users(&self) -> usize {
        self.n_users
    }

    /// Vocabulary size `|W|`.
    pub fn vocab_size(&self) -> usize {
        self.vocab_size
    }

    /// Number of discrete time buckets (max timestamp + 1).
    pub fn n_timestamps(&self) -> u32 {
        self.n_timestamps
    }

    /// All documents `D`.
    pub fn docs(&self) -> &[Document] {
        &self.docs
    }

    /// Number of documents `|D|`.
    pub fn n_docs(&self) -> usize {
        self.docs.len()
    }

    /// A document by id.
    #[inline]
    pub fn doc(&self, id: DocId) -> &Document {
        &self.docs[id.index()]
    }

    /// Documents published by `u` (as doc ids).
    pub fn docs_of(&self, u: UserId) -> impl Iterator<Item = DocId> + '_ {
        self.user_docs.row(u.index()).iter().map(|&d| DocId(d))
    }

    /// Number of documents published by `u`.
    pub fn n_docs_of(&self, u: UserId) -> usize {
        self.user_docs.degree(u.index())
    }

    /// All friendship links `F`.
    pub fn friendships(&self) -> &[FriendshipLink] {
        &self.friendships
    }

    /// All diffusion links `E`.
    pub fn diffusions(&self) -> &[DiffusionLink] {
        &self.diffusions
    }

    /// `Λ_u`: friendship neighbours of `u`, both directions, as user ids:
    /// the other endpoint of each link of
    /// [`SocialGraph::friend_links_of`], in the same order.
    pub fn friend_neighbors_of(&self, u: UserId) -> impl Iterator<Item = UserId> + '_ {
        self.friend_links_of(u).iter().map(move |&l| {
            let link = self.friendships[l as usize];
            if link.from == u {
                link.to
            } else {
                link.from
            }
        })
    }

    /// Friendship link ids incident to `u` (both directions), parallel to
    /// [`SocialGraph::friend_neighbors_of`].
    pub fn friend_links_of(&self, u: UserId) -> &[u32] {
        self.friend_incident.row(u.index())
    }

    /// Friendship degree of `u` (in + out).
    pub fn friend_degree(&self, u: UserId) -> usize {
        self.friend_incident.degree(u.index())
    }

    /// `Λ_i`: diffusion link ids incident to document `i` (both
    /// directions).
    pub fn diffusion_links_of(&self, d: DocId) -> &[u32] {
        self.diffusion_incident.row(d.index())
    }

    /// Out-degree of `u` in `F` (the paper's "followees" count).
    pub fn followees(&self, u: UserId) -> u32 {
        self.out_degree[u.index()]
    }

    /// In-degree of `u` in `F` (the paper's "followers" count).
    pub fn followers(&self, u: UserId) -> u32 {
        self.in_degree[u.index()]
    }

    /// Total token count over all documents.
    pub fn n_tokens(&self) -> usize {
        self.docs.iter().map(Document::len).sum()
    }

    /// Summary statistics (Table 3 of the paper).
    pub fn stats(&self) -> GraphStats {
        GraphStats {
            n_users: self.n_users,
            n_docs: self.docs.len(),
            vocab_size: self.vocab_size,
            n_tokens: self.n_tokens(),
            n_friendship_links: self.friendships.len(),
            n_diffusion_links: self.diffusions.len(),
            n_timestamps: self.n_timestamps,
        }
    }

    /// Rebuild this graph keeping only friendship links whose index passes
    /// `keep` (used by the cross-validation splitter).
    pub fn retain_friendships(&self, keep: impl Fn(usize) -> bool) -> SocialGraph {
        let friendships: Vec<FriendshipLink> = self
            .friendships
            .iter()
            .enumerate()
            .filter(|(i, _)| keep(*i))
            .map(|(_, &l)| l)
            .collect();
        Self::assemble(
            self.n_users,
            self.vocab_size,
            self.docs.clone(),
            friendships,
            self.diffusions.clone(),
        )
        .expect("a sub-list of a valid graph's links is valid")
    }

    /// Rebuild this graph keeping only diffusion links whose index passes
    /// `keep`.
    pub fn retain_diffusions(&self, keep: impl Fn(usize) -> bool) -> SocialGraph {
        let diffusions: Vec<DiffusionLink> = self
            .diffusions
            .iter()
            .enumerate()
            .filter(|(i, _)| keep(*i))
            .map(|(_, &l)| l)
            .collect();
        Self::assemble(
            self.n_users,
            self.vocab_size,
            self.docs.clone(),
            self.friendships.clone(),
            diffusions,
        )
        .expect("a sub-list of a valid graph's links is valid")
    }

    /// Validate the lists and index them: one counting pass per list,
    /// in the order documents, friendships, diffusions, then one scatter
    /// pass per list. Each counting pass checks its items as it counts
    /// them, so the first fault in that order is the one reported.
    pub(crate) fn assemble(
        n_users: usize,
        vocab_size: usize,
        docs: Vec<Document>,
        friendships: Vec<FriendshipLink>,
        diffusions: Vec<DiffusionLink>,
    ) -> Result<SocialGraph, GraphError> {
        if n_users == 0 {
            return Err(GraphError::NoUsers);
        }
        let mut last_time = 0;
        let mut docs_per_user = vec![0u32; n_users];
        for (i, d) in docs.iter().enumerate() {
            let Some(count) = docs_per_user.get_mut(d.author.index()) else {
                return Err(GraphError::AuthorOutOfRange {
                    doc: i,
                    author: d.author.0,
                    n_users,
                });
            };
            if let Some(w) = d.words.iter().find(|w| w.index() >= vocab_size) {
                return Err(GraphError::WordOutOfRange {
                    doc: i,
                    word: w.0,
                    vocab: vocab_size,
                });
            }
            *count += 1;
            last_time = last_time.max(d.timestamp);
        }

        let mut out_degree = vec![0u32; n_users];
        let mut in_degree = vec![0u32; n_users];
        for (i, l) in friendships.iter().enumerate() {
            let (from, to) = (l.from.index(), l.to.index());
            if from >= n_users || to >= n_users {
                let user = if from >= n_users { l.from.0 } else { l.to.0 };
                return Err(GraphError::FriendEndpointOutOfRange { link: i, user });
            }
            if from == to {
                return Err(GraphError::FriendSelfLoop { user: l.from.0 });
            }
            out_degree[from] += 1;
            in_degree[to] += 1;
        }

        let n_docs = docs.len();
        let mut links_per_doc = vec![0u32; n_docs];
        for (i, l) in diffusions.iter().enumerate() {
            let (src, dst) = (l.src.index(), l.dst.index());
            if src >= n_docs || dst >= n_docs {
                let doc = if src >= n_docs { l.src.0 } else { l.dst.0 };
                return Err(GraphError::DiffusionEndpointOutOfRange { link: i, doc });
            }
            if src == dst {
                return Err(GraphError::DiffusionSelfLoop { doc: l.src.0 });
            }
            links_per_doc[src] += 1;
            links_per_doc[dst] += 1;
            last_time = last_time.max(l.at);
        }

        let user_docs = Csr::scatter(docs_per_user, &docs, |d| [d.author.0]);
        let friend_incident = Csr::scatter(
            out_degree
                .iter()
                .zip(&in_degree)
                .map(|(out, inn)| out + inn),
            &friendships,
            |l| [l.from.0, l.to.0],
        );
        let diffusion_incident = Csr::scatter(links_per_doc, &diffusions, |l| [l.src.0, l.dst.0]);
        Ok(SocialGraph {
            n_users,
            vocab_size,
            n_timestamps: last_time + 1,
            docs,
            user_docs,
            friendships,
            friend_incident,
            diffusions,
            diffusion_incident,
            out_degree,
            in_degree,
        })
    }
}

/// Validating builder for [`SocialGraph`].
#[derive(Debug, Default)]
pub struct SocialGraphBuilder {
    n_users: usize,
    vocab_size: usize,
    docs: Vec<Document>,
    friendships: Vec<FriendshipLink>,
    diffusions: Vec<DiffusionLink>,
}

impl SocialGraphBuilder {
    /// Start a graph over `n_users` users and a vocabulary of
    /// `vocab_size` words.
    pub fn new(n_users: usize, vocab_size: usize) -> Self {
        Self {
            n_users,
            vocab_size,
            ..Default::default()
        }
    }

    /// Add a document; returns its id.
    pub fn add_document(&mut self, doc: Document) -> DocId {
        let id = DocId(self.docs.len() as u32);
        self.docs.push(doc);
        id
    }

    /// Add a directed friendship link `u → v`.
    pub fn add_friendship(&mut self, from: UserId, to: UserId) {
        self.friendships.push(FriendshipLink { from, to });
    }

    /// Add a diffusion link: document `src` diffuses `dst` at time `at`.
    pub fn add_diffusion(&mut self, src: DocId, dst: DocId, at: u32) {
        self.diffusions.push(DiffusionLink { src, dst, at });
    }

    /// Current number of documents added.
    pub fn n_docs(&self) -> usize {
        self.docs.len()
    }

    /// A document already added to the builder (panics on bad id).
    pub fn doc(&self, id: DocId) -> &Document {
        &self.docs[id.index()]
    }

    /// Validate and build. Documents are checked first (each one's
    /// author, then its words), then friendships (endpoints, then
    /// self-loops), then diffusions; the first fault found is returned.
    pub fn build(self) -> Result<SocialGraph, GraphError> {
        SocialGraph::assemble(
            self.n_users,
            self.vocab_size,
            self.docs,
            self.friendships,
            self.diffusions,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::WordId;

    fn tiny() -> SocialGraph {
        let mut b = SocialGraphBuilder::new(3, 5);
        let d0 = b.add_document(Document::new(UserId(0), vec![WordId(0), WordId(1)], 0));
        let d1 = b.add_document(Document::new(UserId(1), vec![WordId(2)], 1));
        let d2 = b.add_document(Document::new(UserId(1), vec![WordId(3), WordId(4)], 2));
        b.add_friendship(UserId(0), UserId(1));
        b.add_friendship(UserId(1), UserId(2));
        b.add_diffusion(d2, d0, 2);
        b.add_diffusion(d1, d0, 1);
        b.build().expect("valid graph")
    }

    #[test]
    fn neighbourhoods_are_bidirectional() {
        let g = tiny();
        let n1: Vec<UserId> = g.friend_neighbors_of(UserId(1)).collect();
        assert_eq!(n1, vec![UserId(0), UserId(2)]);
        assert_eq!(g.friend_degree(UserId(1)), 2);
        assert_eq!(g.friend_links_of(UserId(0)), &[0]);
        assert_eq!(g.friend_links_of(UserId(2)), &[1]);
    }

    #[test]
    fn diffusion_incidence_covers_both_ends() {
        let g = tiny();
        assert_eq!(g.diffusion_links_of(DocId(0)), &[0, 1]);
        assert_eq!(g.diffusion_links_of(DocId(2)), &[0]);
        assert_eq!(g.diffusion_links_of(DocId(1)), &[1]);
    }

    #[test]
    fn degrees_and_docs_per_user() {
        let g = tiny();
        assert_eq!(g.followers(UserId(1)), 1);
        assert_eq!(g.followees(UserId(1)), 1);
        assert_eq!(g.n_docs_of(UserId(1)), 2);
        let docs: Vec<DocId> = g.docs_of(UserId(1)).collect();
        assert_eq!(docs, vec![DocId(1), DocId(2)]);
        assert_eq!(g.n_docs_of(UserId(2)), 0);
    }

    #[test]
    fn timestamps_inferred_from_max() {
        let g = tiny();
        assert_eq!(g.n_timestamps(), 3);
        assert_eq!(g.n_tokens(), 5);
    }

    #[test]
    fn rejects_out_of_range_author() {
        let mut b = SocialGraphBuilder::new(1, 2);
        b.add_document(Document::new(UserId(5), vec![WordId(0)], 0));
        assert!(matches!(
            b.build(),
            Err(GraphError::AuthorOutOfRange { author: 5, .. })
        ));
    }

    #[test]
    fn rejects_out_of_range_word() {
        let mut b = SocialGraphBuilder::new(1, 2);
        b.add_document(Document::new(UserId(0), vec![WordId(9)], 0));
        assert!(matches!(
            b.build(),
            Err(GraphError::WordOutOfRange { word: 9, .. })
        ));
    }

    #[test]
    fn rejects_friend_self_loop_and_bad_endpoint() {
        let mut b = SocialGraphBuilder::new(2, 1);
        b.add_friendship(UserId(0), UserId(0));
        assert!(matches!(
            b.build(),
            Err(GraphError::FriendSelfLoop { user: 0 })
        ));

        let mut b = SocialGraphBuilder::new(2, 1);
        b.add_friendship(UserId(0), UserId(7));
        assert!(matches!(
            b.build(),
            Err(GraphError::FriendEndpointOutOfRange { user: 7, .. })
        ));
    }

    #[test]
    fn rejects_bad_diffusion_links() {
        let mut b = SocialGraphBuilder::new(1, 1);
        let d = b.add_document(Document::new(UserId(0), vec![WordId(0)], 0));
        b.add_diffusion(d, DocId(9), 0);
        assert!(matches!(
            b.build(),
            Err(GraphError::DiffusionEndpointOutOfRange { doc: 9, .. })
        ));

        let mut b = SocialGraphBuilder::new(1, 1);
        let d = b.add_document(Document::new(UserId(0), vec![WordId(0)], 0));
        b.add_diffusion(d, d, 0);
        assert!(matches!(
            b.build(),
            Err(GraphError::DiffusionSelfLoop { doc: 0 })
        ));
    }

    #[test]
    fn first_fault_in_the_parents_order_wins() {
        // Documents (author before words), then friendships (endpoint
        // before self-loop), then diffusions; the first offender wins.
        let faulty = |bad_word: bool, bad_author: bool, self_loop: bool| {
            let mut b = SocialGraphBuilder::new(3, 4);
            for i in 0..5u32 {
                let author = if bad_author && i == 3 { 5 } else { i % 3 };
                let word = if bad_word && i == 1 { 9 } else { i % 4 };
                b.add_document(Document::new(UserId(author), vec![WordId(word)], i));
            }
            b.add_friendship(UserId(0), UserId(1));
            if self_loop {
                b.add_friendship(UserId(2), UserId(2));
            }
            b.add_friendship(UserId(1), UserId(2));
            b.add_diffusion(DocId(1), DocId(0), 1);
            b.add_diffusion(DocId(2), DocId(99), 2);
            b.build().unwrap_err()
        };
        assert_eq!(
            faulty(true, true, true),
            GraphError::WordOutOfRange {
                doc: 1,
                word: 9,
                vocab: 4
            }
        );
        assert_eq!(
            faulty(false, true, true),
            GraphError::AuthorOutOfRange {
                doc: 3,
                author: 5,
                n_users: 3
            }
        );
        assert_eq!(
            faulty(false, false, true),
            GraphError::FriendSelfLoop { user: 2 }
        );
        assert_eq!(
            faulty(false, false, false),
            GraphError::DiffusionEndpointOutOfRange { link: 1, doc: 99 }
        );

        let mut b = SocialGraphBuilder::new(1, 2);
        b.add_document(Document::new(UserId(5), vec![WordId(9)], 0));
        assert_eq!(
            b.build().unwrap_err(),
            GraphError::AuthorOutOfRange {
                doc: 0,
                author: 5,
                n_users: 1
            }
        );
        let mut b = SocialGraphBuilder::new(2, 1);
        b.add_friendship(UserId(7), UserId(7));
        assert_eq!(
            b.build().unwrap_err(),
            GraphError::FriendEndpointOutOfRange { link: 0, user: 7 }
        );
    }

    #[test]
    fn rejects_empty_user_set() {
        let b = SocialGraphBuilder::new(0, 1);
        assert!(matches!(b.build(), Err(GraphError::NoUsers)));
    }

    #[test]
    fn retain_friendships_drops_links() {
        let g = tiny();
        let g2 = g.retain_friendships(|i| i != 0);
        assert_eq!(g2.friendships().len(), 1);
        assert_eq!(g2.friend_degree(UserId(0)), 0);
        // Docs and diffusions untouched.
        assert_eq!(g2.n_docs(), 3);
        assert_eq!(g2.diffusions().len(), 2);
    }

    #[test]
    fn retain_diffusions_drops_links() {
        let g = tiny();
        let g2 = g.retain_diffusions(|i| i == 1);
        assert_eq!(g2.diffusions().len(), 1);
        assert_eq!(g2.diffusions()[0].src, DocId(1));
        assert_eq!(g2.friendships().len(), 2);
    }

    #[test]
    fn stats_match_contents() {
        let s = tiny().stats();
        assert_eq!(s.n_users, 3);
        assert_eq!(s.n_docs, 3);
        assert_eq!(s.n_friendship_links, 2);
        assert_eq!(s.n_diffusion_links, 2);
        assert_eq!(s.n_tokens, 5);
        assert_eq!(s.vocab_size, 5);
    }
}
