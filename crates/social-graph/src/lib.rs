//! Social graph substrate for the CPD reproduction.
//!
//! Implements Definition 1 of the paper: a social graph
//! `G = (U, D, F, E)` where `U` are users, `D` user-published documents,
//! `F` directed friendship links between users and `E` directed,
//! timestamped diffusion links between documents (document `i` retweets /
//! cites document `j`).
//!
//! The [`SocialGraph`] is immutable after construction (via
//! [`SocialGraphBuilder`], which validates endpoints) and exposes the
//! neighbourhood views the Gibbs samplers need: `Λ_u` (friendship
//! neighbours of a user, both directions) and `Λ_i` (diffusion links
//! incident to a document, both directions).
//!
//! A build reads each list twice, straight from its slice: one counting
//! pass per list (documents, then friendships, then diffusions) that
//! validates every item, so the first fault in that order is the error
//! returned, and takes the row degrees, the followee/follower counts and
//! the last timestamp; then one [`csr::Csr::scatter`] pass per list.
//! Three CSRs result — documents per user, friendship links per user,
//! diffusion links per document — and every row keeps list order, so
//! every sweep visits links in insertion order. The neighbour view `Λ_u`
//! is not stored: [`SocialGraph::friend_neighbors_of`] returns the other
//! endpoint of each of the user's incident links.

pub mod csr;
pub mod document;
pub mod error;
pub mod graph;
pub mod ids;
pub mod sample;
pub mod split;
pub mod stats;

pub use document::Document;
pub use error::GraphError;
pub use graph::{DiffusionLink, FriendshipLink, SocialGraph, SocialGraphBuilder};
pub use ids::{CommunityId, DocId, TopicId, UserId, WordId};
pub use stats::GraphStats;
