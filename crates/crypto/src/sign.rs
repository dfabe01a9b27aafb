//! A toy signature scheme for VGRaft simulation.
//!
//! VGRaft needs entries to be *signed by the leader* and *verified by a
//! verification group*. A real deployment would use asymmetric signatures;
//! for the reproduction we use a shared-secret HMAC scheme with per-node
//! derived keys. The scheme preserves what the evaluation measures — every
//! entry incurs digest + MAC computation at the signer and at each verifier —
//! while staying inside the approved dependency set. It is **not** secure
//! against a Byzantine insider (any key-holder can forge); the paper's
//! throughput comparison does not depend on that property.

use crate::hmac::{hmac_sha256, mac_eq};
use crate::sha256::sha256;

/// A signing identity derived from a cluster secret and a node id. It is
/// cheap to derive (one SHA-256), so a signer or verifier derives the key it
/// needs where it needs it and keeps no key table.
#[derive(Debug, Clone)]
pub struct Keypair {
    key: [u8; 32],
}

/// A detached signature.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Signature(pub [u8; 32]);

impl Keypair {
    /// Derive the keypair for `node` from the shared `cluster_secret`.
    pub fn derive(cluster_secret: &[u8], node: u32) -> Keypair {
        let mut material = Vec::with_capacity(cluster_secret.len() + 4);
        material.extend_from_slice(cluster_secret);
        material.extend_from_slice(&node.to_le_bytes());
        Keypair { key: sha256(&material) }
    }

    /// Sign a message (the caller usually signs a digest).
    pub fn sign(&self, msg: &[u8]) -> Signature {
        Signature(hmac_sha256(&self.key, msg))
    }

    /// Verify a signature allegedly produced by this key.
    pub fn verify(&self, msg: &[u8], sig: &Signature) -> bool {
        mac_eq(&self.sign(msg).0, &sig.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sign_verify_round_trip() {
        let kp = Keypair::derive(b"cluster-secret", 3);
        let sig = kp.sign(b"entry digest");
        assert!(kp.verify(b"entry digest", &sig));
        assert!(!kp.verify(b"different message", &sig));
    }

    #[test]
    fn keys_differ_per_node() {
        let a = Keypair::derive(b"s", 0);
        let b = Keypair::derive(b"s", 1);
        assert_ne!(a.sign(b"m"), b.sign(b"m"));
    }

    #[test]
    fn only_the_signers_key_verifies() {
        let signer = Keypair::derive(b"secret", 1);
        let sig = signer.sign(b"digest");
        assert!(Keypair::derive(b"secret", 1).verify(b"digest", &sig));
        assert!(!Keypair::derive(b"secret", 0).verify(b"digest", &sig));
        assert!(!Keypair::derive(b"secret", 2).verify(b"digest", &sig));
        assert!(!Keypair::derive(b"secret", 9).verify(b"digest", &sig));
    }

    #[test]
    fn different_secrets_do_not_cross_verify() {
        let sig = Keypair::derive(b"alpha", 0).sign(b"m");
        assert!(!Keypair::derive(b"beta", 0).verify(b"m", &sig));
    }
}
