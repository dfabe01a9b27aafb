//! Group namespacing for multi-group traces.
//!
//! A sharded process hosts one replica of *every* Raft group, and each
//! group numbers its replicas `0..n` independently. Recording the groups'
//! events into one buffer under those ids would collide on the span
//! assembler's join keys: [`crate::collect`] stitches entry lifecycles on
//! `(node, index)`, and group 0's `(node 1, index 7)` is a different
//! operation from group 3's. Client-side keys are safe — sharded harnesses allocate client ids
//! globally unique across groups — so node ids are the only namespace that
//! needs widening.
//!
//! The rule: replica `n` of group `g` appears in a trace as node
//! `g * GROUP_NODE_STRIDE + n`, applied at record time by the group's
//! [`crate::EngineProbe::in_group`] handle. The stride is far above any
//! real replica count and far below `u32::MAX * MAX_GROUPS`, and it is a
//! round decimal so merged traces stay human-readable (`node 3000002` = group 3,
//! replica 2). Group 0 is unchanged, which keeps every unsharded trace and
//! tool output byte-identical.

use nbr_types::NodeId;

/// Node-id stride between consecutive groups in a merged trace.
pub const GROUP_NODE_STRIDE: u32 = 1_000_000;

/// The merged-trace node id of replica `node` in group `group`.
pub fn group_node(group: u32, node: NodeId) -> NodeId {
    debug_assert!(node.0 < GROUP_NODE_STRIDE, "replica id exceeds the group stride");
    NodeId(group * GROUP_NODE_STRIDE + node.0)
}

/// Invert [`group_node`]: the `(group, replica)` a merged node id denotes.
pub fn node_group(node: NodeId) -> (u32, NodeId) {
    (node.0 / GROUP_NODE_STRIDE, NodeId(node.0 % GROUP_NODE_STRIDE))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn group_node_round_trips() {
        for g in [0u32, 1, 7, 1023] {
            for n in [0u32, 1, 2, 63] {
                assert_eq!(node_group(group_node(g, NodeId(n))), (g, NodeId(n)));
            }
        }
    }
}
