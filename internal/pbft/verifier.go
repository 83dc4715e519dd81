package pbft

import (
	"repro/internal/crypto"
	"repro/internal/message"
)

// verifier is the authentication core of the receive path. It owns no
// protocol state: it reads the directory, the key store, and the immutable
// mode.
type verifier struct {
	mode Mode
	dir  *Directory
	ks   *crypto.KeyStore
}

// ensurePeerKeys lazily installs the administrator-distributed initial keys
// for a principal first seen now (clients appear dynamically).
func ensurePeerKeys(ks *crypto.KeyStore, peer message.NodeID) {
	if k, _ := ks.OutKey(uint32(peer)); k == nil {
		ks.InstallInitial(uint32(peer))
	}
}

// verifySig checks a signature trailer against the directory.
func (v *verifier) verifySig(m message.Message) bool {
	a := m.AuthTrailer()
	if a.Kind != message.AuthSig {
		return false
	}
	pub, ok := v.dir.PublicKey(m.Sender())
	if !ok {
		return false
	}
	return crypto.Verify(pub, m.Payload(), a.Sig)
}

// Verify authenticates an inbound message according to mode and type.
func (v *verifier) Verify(m message.Message) bool {
	sender := m.Sender()
	a := m.AuthTrailer()

	switch m.(type) {
	case *message.Data, *message.BatchBody:
		// Content-addressed: verified against known digests (§5.3.2).
		return true
	case *message.NewKey:
		return v.verifySig(m)
	}

	if req, ok := m.(*message.Request); ok && req.Recovery() {
		return v.verifySig(m) // recovery requests are co-processor signed
	}

	if v.mode == ModePK {
		return v.verifySig(m)
	}

	switch a.Kind {
	case message.AuthVector:
		ensurePeerKeys(v.ks, sender)
		return v.ks.CheckAuthenticator(uint32(sender), m.Payload(), a.Vector)
	case message.AuthMAC:
		ensurePeerKeys(v.ks, sender)
		return v.ks.CheckPointMAC(uint32(sender), m.Payload(), a.MAC)
	default:
		return false
	}
}
