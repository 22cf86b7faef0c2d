//! The limited-global information store and its memory footprint.
//!
//! One of the paper's arguments for the model is the reduced memory requirement
//! compared to "traditional models that assume all the nodes know global fault
//! information": only the nodes on a block's frame and boundaries store that block's
//! information, and only affected nodes update it after a disturbance.
//!
//! [`InfoStore`] assembles, for a stabilised block set, exactly which node stores which
//! block's information and in which capacity (frame role or boundary guard), and
//! [`MemoryFootprint`] compares the resulting cost against the global model (every
//! node storing every block).

use lgfi_topology::{Direction, Mesh, NodeId};

use crate::block::{BlockId, BlockSet};
use crate::boundary::BoundaryMap;
use crate::frame::{BlockFrame, Role};

/// Why a node stores a block's information.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StoredAs {
    /// The node is on the block's frame with the given role (adjacent node / corner).
    Frame(Role),
    /// The node is on the block's boundary for the given surface direction.
    Boundary(Direction),
}

/// One stored piece of information: which block, and in which capacity.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StoredInfo {
    /// The block whose extent is stored.
    pub block_id: BlockId,
    /// The capacity in which this node stores it.
    pub stored_as: StoredAs,
}

/// The complete per-node information placement for a block set.
#[derive(Debug, Clone, Default)]
pub struct InfoStore {
    per_node: Vec<Vec<StoredInfo>>,
}

impl InfoStore {
    /// Builds the placement for a stabilised block set (frames + boundaries).
    pub fn build(mesh: &Mesh, blocks: &BlockSet, boundary: &BoundaryMap) -> Self {
        let mut per_node: Vec<Vec<StoredInfo>> = vec![Vec::new(); mesh.node_count()];
        for block in blocks.blocks() {
            let frame = BlockFrame::of_block(mesh, block);
            for (id, role) in frame.roles() {
                per_node[id].push(StoredInfo {
                    block_id: block.id,
                    stored_as: StoredAs::Frame(role),
                });
            }
        }
        for (id, infos) in per_node.iter_mut().enumerate() {
            for entry in boundary.entries(id) {
                infos.push(StoredInfo {
                    block_id: entry.block_id,
                    stored_as: StoredAs::Boundary(entry.guard),
                });
            }
        }
        InfoStore { per_node }
    }

    /// The stored entries of a node.
    pub fn at(&self, id: NodeId) -> &[StoredInfo] {
        &self.per_node[id]
    }

    /// Number of nodes storing at least one entry.
    pub fn nodes_with_info(&self) -> usize {
        self.per_node.iter().filter(|v| !v.is_empty()).count()
    }

    /// Number of distinct (node, block) pairs — i.e. block records held across the
    /// mesh (a node guarding a block as both frame and boundary member still stores
    /// one record for it).
    pub fn block_records(&self) -> usize {
        self.per_node
            .iter()
            .map(|v| {
                let mut ids: Vec<BlockId> = v.iter().map(|s| s.block_id).collect();
                ids.sort_unstable();
                ids.dedup();
                ids.len()
            })
            .sum()
    }

    /// Total number of stored entries (frame roles + boundary guards).
    pub fn total_entries(&self) -> usize {
        self.per_node.iter().map(|v| v.len()).sum()
    }

    /// Computes the memory comparison against the global model.
    pub fn footprint(&self, mesh: &Mesh, blocks: &BlockSet) -> MemoryFootprint {
        MemoryFootprint {
            node_count: mesh.node_count(),
            block_count: blocks.len(),
            nodes_with_info: self.nodes_with_info(),
            limited_records: self.block_records(),
            global_records: mesh.node_count() * blocks.len(),
        }
    }
}

/// Memory cost of the limited-global model vs. the global model.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MemoryFootprint {
    /// Number of nodes in the mesh.
    pub node_count: usize,
    /// Number of blocks.
    pub block_count: usize,
    /// Nodes storing at least one block record under the limited-global model.
    pub nodes_with_info: usize,
    /// Total (node, block) records stored under the limited-global model.
    pub limited_records: usize,
    /// Total records a global model would store (`node_count * block_count`).
    pub global_records: usize,
}

impl MemoryFootprint {
    /// Fraction of nodes that store any information at all.
    pub fn coverage(&self) -> f64 {
        if self.node_count == 0 {
            0.0
        } else {
            self.nodes_with_info as f64 / self.node_count as f64
        }
    }

    /// Ratio of limited-global records to global records (lower is better; 1.0 means
    /// no saving).
    pub fn record_ratio(&self) -> f64 {
        if self.global_records == 0 {
            0.0
        } else {
            self.limited_records as f64 / self.global_records as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layout::StaticLayout;
    use lgfi_topology::{coord, Coord};

    fn build(mesh: &Mesh, faults: &[Coord]) -> (StaticLayout, InfoStore) {
        let layout = StaticLayout::new(mesh.clone(), faults);
        let store = InfoStore::build(mesh, layout.blocks(), layout.boundary());
        (layout, store)
    }

    #[test]
    fn only_frame_and_boundary_nodes_store_information() {
        let mesh = Mesh::cubic(10, 3);
        let (layout, store) = build(
            &mesh,
            &[
                coord![3, 5, 4],
                coord![4, 5, 4],
                coord![5, 5, 3],
                coord![3, 6, 3],
            ],
        );
        let (blocks, boundary) = (layout.blocks(), layout.boundary());
        let frame = BlockFrame::of_block(&mesh, &blocks.blocks()[0]);
        for id in mesh.node_ids() {
            let stored = !store.at(id).is_empty();
            let expected = frame.role_of(id).is_some() || !boundary.entries(id).is_empty();
            assert_eq!(stored, expected, "node {:?}", mesh.coord_of(id));
        }
    }

    #[test]
    fn memory_footprint_is_far_below_the_global_model() {
        let mesh = Mesh::cubic(12, 3);
        let (layout, store) = build(
            &mesh,
            &[
                coord![3, 5, 4],
                coord![4, 5, 4],
                coord![5, 5, 3],
                coord![3, 6, 3],
                coord![9, 9, 9],
                coord![9, 8, 9],
                coord![8, 9, 9],
            ],
        );
        let fp = store.footprint(&mesh, layout.blocks());
        assert_eq!(fp.node_count, 12 * 12 * 12);
        assert_eq!(fp.block_count, 2);
        assert!(fp.nodes_with_info > 0);
        assert!(
            fp.coverage() < 0.5,
            "coverage {} should stay well below 1",
            fp.coverage()
        );
        assert!(
            fp.record_ratio() < 0.5,
            "limited records {} vs global {}",
            fp.limited_records,
            fp.global_records
        );
        assert!(fp.limited_records <= store.total_entries());
    }

    #[test]
    fn fault_free_store_is_empty() {
        let mesh = Mesh::cubic(8, 2);
        let (layout, store) = build(&mesh, &[]);
        assert_eq!(store.nodes_with_info(), 0);
        assert_eq!(store.total_entries(), 0);
        let fp = store.footprint(&mesh, layout.blocks());
        assert_eq!(fp.coverage(), 0.0);
        assert_eq!(fp.record_ratio(), 0.0);
        assert_eq!(fp.global_records, 0);
    }

    #[test]
    fn block_records_deduplicate_multiple_capacities() {
        // A node can be both a frame node of a block and on its boundary start; it
        // still stores only one record for that block.
        let mesh = Mesh::cubic(10, 2);
        let (_, store) = build(
            &mesh,
            &[coord![4, 4], coord![5, 5], coord![4, 5], coord![5, 4]],
        );
        for id in mesh.node_ids() {
            let entries = store.at(id);
            let mut ids: Vec<BlockId> = entries.iter().map(|e| e.block_id).collect();
            ids.sort_unstable();
            ids.dedup();
            assert!(ids.len() <= 1);
        }
        assert!(store.block_records() <= store.total_entries());
        assert!(store.block_records() > 0);
    }
}
