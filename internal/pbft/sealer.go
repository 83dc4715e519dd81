package pbft

import (
	"repro/internal/crypto"
	"repro/internal/egress"
	"repro/internal/message"
)

// sealer is the authentication core of the send path, shared by replicas
// and clients — the outbound twin of verifier. It reads the key store and
// the immutable mode and group size, and never writes into the message:
// the trailer goes straight into the wire buffer.
type sealer struct {
	mode Mode
	n    int
	ks   *crypto.KeyStore
	kp   crypto.KeyPair
}

// Seal implements egress.Sealer: it appends m's wire encoding to buf —
// the body, encoded once, followed by the trailer kind calls for, computed
// over exactly those body bytes. The result is the same as setting the
// trailer on m and calling Marshal.
func (s *sealer) Seal(buf []byte, kind egress.Kind, dst message.NodeID, m message.Message) []byte {
	start := len(buf)
	buf = message.AppendPayload(buf, m)
	a := s.trailer(kind, dst, buf[start:])
	return message.AppendAuth(buf, &a)
}

// trailer computes the authentication trailer of kind over payload.
func (s *sealer) trailer(kind egress.Kind, dst message.NodeID, payload []byte) message.Auth {
	switch {
	case s.mode == ModePK || kind == egress.Sign:
		return message.Auth{Kind: message.AuthSig, Sig: s.kp.Sign(payload)}
	case kind == egress.Point:
		ensurePeerKeys(s.ks, dst)
		return message.Auth{
			Kind: message.AuthMAC,
			MAC:  s.ks.ComputePointMAC(uint32(dst), payload),
		}
	default:
		return message.Auth{
			Kind:   message.AuthVector,
			Vector: s.ks.MakeAuthenticator(s.n, payload),
		}
	}
}
