// Package crypto provides the cryptographic substrate for the BFT library:
// message digests, MACs and authenticators (the vector-of-MACs construction
// of Section 3.2.1 of the thesis), public-key signatures used by BFT-PK and
// by the proactive-recovery key exchange, and the incremental (AdHash-style)
// digests used by the hierarchical checkpoint partition tree (Section 5.3).
//
// The paper used MD5 digests, UMAC32 MACs and Rabin-Williams signatures; we
// substitute SHA-256, truncated HMAC-SHA-256 and Ed25519 from the Go standard
// library. The property the protocol depends on — MACs being orders of
// magnitude cheaper than signatures, digests in between — is preserved.
//
// Session keys are keyed for HMAC once, when they are installed. HMAC-SHA-256
// (RFC 2104) hashes key⊕ipad and key⊕opad as the first block of its inner
// and outer hashes; those two blocks depend only on the key, so a KeyStore
// keeps the marshaled SHA-256 state after each of them (the midstates) next
// to the key. A MAC then restores the inner midstate into a pooled scratch
// hash, hashes the payload, restores the outer midstate and hashes the inner
// sum: one payload hash and one extra block, with no allocation. The tags are
// bit-identical to crypto/hmac's. Midstates never go stale: key rotation
// (RefreshIn, SetOut) publishes a new copy-on-write snapshot holding a new
// key with its own midstates, and a snapshot, once published, is never
// modified, so a reader always pairs a key with the pads derived from it.
package crypto

import (
	"crypto/ed25519"
	"crypto/hmac"
	"crypto/sha256"
	"encoding"
	"encoding/binary"
	"fmt"
	"hash"
	"sync"
)

// DigestSize is the size in bytes of a message or state digest.
const DigestSize = 32

// MACSize is the size in bytes of a single (truncated) MAC tag.
// The thesis used 8-byte UMAC32 tags (a 4-byte tag plus a 4-byte nonce);
// we truncate HMAC-SHA-256 to the same size.
const MACSize = 8

// SigSize is the size in bytes of a signature (Ed25519).
const SigSize = ed25519.SignatureSize

// Digest is a collision-resistant hash of a message or of service state.
type Digest [DigestSize]byte

// ZeroDigest is the digest value used for the special null request that view
// changes use to fill sequence-number gaps (Section 2.3.5).
var ZeroDigest Digest

// IsZero reports whether d is the all-zero digest.
func (d Digest) IsZero() bool { return d == ZeroDigest }

// String returns an abbreviated hex form for logs.
func (d Digest) String() string { return fmt.Sprintf("%x", d[:4]) }

// DigestOf hashes the concatenation of the given byte slices.
func DigestOf(parts ...[]byte) Digest {
	h := sha256.New()
	for _, p := range parts {
		h.Write(p)
	}
	var d Digest
	h.Sum(d[:0])
	return d
}

// DigestOfU64 hashes a sequence of uint64 values followed by byte slices.
// It is used where the digest must cover fixed header fields.
func DigestOfU64(nums []uint64, parts ...[]byte) Digest {
	h := sha256.New()
	var buf [8]byte
	for _, n := range nums {
		binary.LittleEndian.PutUint64(buf[:], n)
		h.Write(buf[:])
	}
	for _, p := range parts {
		h.Write(p)
	}
	var d Digest
	h.Sum(d[:0])
	return d
}

// MAC is a truncated message authentication tag for one sender/receiver pair.
type MAC [MACSize]byte

// macKey is a key prepared for HMAC-SHA-256: the marshaled SHA-256 states
// after absorbing the key⊕ipad block (inner) and the key⊕opad block (outer).
// It is immutable once built.
type macKey struct {
	inner, outer []byte
}

// shaState is a SHA-256 hash whose state can be saved and restored.
type shaState interface {
	hash.Hash
	encoding.BinaryMarshaler
	encoding.BinaryUnmarshaler
}

// macScratch is the per-MAC working set: a SHA-256 state and buffers for a
// pad block and the inner sum. They live in the pooled struct so nothing
// escapes per call.
type macScratch struct {
	h     shaState
	block [sha256.BlockSize]byte
	sum   [sha256.Size]byte
}

var macPool = sync.Pool{New: func() any {
	return &macScratch{h: sha256.New().(shaState)}
}}

// newMACKey computes the HMAC midstates of key. Keys longer than a SHA-256
// block are hashed first, as RFC 2104 requires.
func newMACKey(key []byte) macKey {
	if len(key) > sha256.BlockSize {
		k := sha256.Sum256(key)
		key = k[:]
	}
	s := macPool.Get().(*macScratch)
	defer macPool.Put(s)
	return macKey{inner: s.midstate(key, 0x36), outer: s.midstate(key, 0x5c)}
}

// midstate returns the marshaled SHA-256 state after hashing one block of
// key, zero-padded, XORed with pad.
func (s *macScratch) midstate(key []byte, pad byte) []byte {
	for i := range s.block {
		s.block[i] = pad
	}
	for i, b := range key {
		s.block[i] ^= b
	}
	s.h.Reset()
	s.h.Write(s.block[:])
	st, err := s.h.MarshalBinary()
	if err != nil {
		panic("crypto: sha256 state does not marshal: " + err.Error())
	}
	return st
}

// restore loads a midstate built by newMACKey into the scratch hash.
func (s *macScratch) restore(state []byte) {
	if err := s.h.UnmarshalBinary(state); err != nil {
		panic("crypto: corrupt HMAC midstate: " + err.Error())
	}
}

// compute returns the truncated HMAC of payload under k.
func (k macKey) compute(payload []byte) MAC {
	s := macPool.Get().(*macScratch)
	s.restore(k.inner)
	s.h.Write(payload)
	s.h.Sum(s.sum[:0])
	s.restore(k.outer)
	s.h.Write(s.sum[:])
	s.h.Sum(s.sum[:0])
	var m MAC
	copy(m[:], s.sum[:MACSize])
	macPool.Put(s)
	return m
}

// verify reports whether m is the MAC of payload under k, in constant time.
func (k macKey) verify(payload []byte, m MAC) bool {
	want := k.compute(payload)
	return hmac.Equal(want[:], m[:])
}

// ComputeMAC computes the MAC of payload under key. It keys the HMAC from
// scratch; KeyStore methods reuse the pads computed at key install instead.
func ComputeMAC(key []byte, payload []byte) MAC {
	return newMACKey(key).compute(payload)
}

// VerifyMAC reports whether m is a valid MAC of payload under key.
func VerifyMAC(key []byte, payload []byte, m MAC) bool {
	return newMACKey(key).verify(payload, m)
}

// Authenticator is a vector of MACs, one per replica, attached to messages
// that are multicast to the whole replica group (Section 3.2.1). Entry i is
// the MAC computed with the key the sender shares with replica i. The entry
// for the sender itself is left zero.
type Authenticator struct {
	// Epoch is the sender's key epoch; receivers reject authenticators from
	// epochs older than the freshness horizon (Section 4.3.1).
	Epoch uint32
	MACs  []MAC
}

// KeyPair is a public-key signature key pair. In BFT-PR the private key
// lives inside the simulated secure co-processor.
type KeyPair struct {
	Public  ed25519.PublicKey
	private ed25519.PrivateKey
}

// GenerateKeyPair creates a key pair from a deterministic seed. Production
// code would use crypto/rand; the simulation wants reproducibility.
func GenerateKeyPair(seed []byte) KeyPair {
	h := sha256.Sum256(seed)
	priv := ed25519.NewKeyFromSeed(h[:])
	return KeyPair{Public: priv.Public().(ed25519.PublicKey), private: priv}
}

// Sign signs payload with the private key.
func (kp KeyPair) Sign(payload []byte) []byte {
	return ed25519.Sign(kp.private, payload)
}

// Verify reports whether sig is a valid signature of payload under pub.
func Verify(pub ed25519.PublicKey, payload, sig []byte) bool {
	if len(sig) != ed25519.SignatureSize || len(pub) != ed25519.PublicKeySize {
		return false
	}
	return ed25519.Verify(pub, payload, sig)
}

// DeriveKey derives a deterministic symmetric key from a label and a set of
// integers. Used to set up initial session keys and by the simulated secure
// co-processor to generate fresh keys.
func DeriveKey(label string, nums ...uint64) []byte {
	h := sha256.New()
	h.Write([]byte(label))
	var buf [8]byte
	for _, n := range nums {
		binary.LittleEndian.PutUint64(buf[:], n)
		h.Write(buf[:])
	}
	return h.Sum(nil)[:16]
}
