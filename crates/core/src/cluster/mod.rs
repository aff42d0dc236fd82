//! Clustering: standard k-means and the adaptive Ad-KMN algorithm.
//!
//! The paper's §2.1: the region `R` is partitioned by cluster centroids;
//! standard k-means uses only geometry, while **Ad-KMN** additionally uses
//! the model approximation error as a clustering criterion — regions whose
//! model exceeds the error threshold `τ_n` are split "only when and where it
//! is necessary".

mod adkmn;
mod kmeans;

pub use adkmn::{AdKmn, AdKmnConfig, AdKmnResult, SplitStrategy};
pub(crate) use kmeans::nearest_centroid;
pub use kmeans::{ClusterMembers, Clustering, KMeans};
