package crypto

import (
	"crypto/hmac"
	"crypto/sha256"
	"fmt"
	"testing"
)

// oracleMAC is the reference: crypto/hmac keyed from scratch, truncated.
func oracleMAC(key, payload []byte) MAC {
	h := hmac.New(sha256.New, key)
	h.Write(payload)
	var m MAC
	copy(m[:], h.Sum(nil))
	return m
}

func pattern(n int, salt byte) []byte {
	b := make([]byte, n)
	for i := range b {
		b[i] = byte(i*7) ^ salt
	}
	return b
}

// TestMACMatchesHMAC is the differential test of the midstate path against
// crypto/hmac. Key lengths straddle the 64-byte SHA-256 block (longer keys
// are hashed first); payload lengths straddle the padding boundaries at 55/56
// and 119/120 bytes and the block boundaries at 64 and 128 (inner hash input
// is 64 bytes of pad plus the payload).
func TestMACMatchesHMAC(t *testing.T) {
	keyLens := []int{0, 1, 16, 63, 64, 65, 100}
	payloadLens := []int{0, 1, 55, 56, 63, 64, 65, 119, 120, 4096}
	for _, kl := range keyLens {
		key := pattern(kl, 0xa5)
		sender := NewKeyStore(0)
		sender.SetOut(1, key, 1)
		for _, pl := range payloadLens {
			t.Run(fmt.Sprintf("key%d/payload%d", kl, pl), func(t *testing.T) {
				payload := pattern(pl, 0x3c)
				want := oracleMAC(key, payload)
				if got := ComputeMAC(key, payload); got != want {
					t.Fatalf("ComputeMAC = %x, want %x", got, want)
				}
				if got := sender.ComputePointMAC(1, payload); got != want {
					t.Fatalf("ComputePointMAC = %x, want %x", got, want)
				}
				if got := sender.MakeAuthenticator(2, payload).MACs[1]; got != want {
					t.Fatalf("MakeAuthenticator entry = %x, want %x", got, want)
				}
				if !VerifyMAC(key, payload, want) {
					t.Fatal("VerifyMAC rejected the oracle's tag")
				}
				bad := want
				bad[MACSize-1] ^= 1
				if VerifyMAC(key, payload, bad) {
					t.Fatal("VerifyMAC accepted a corrupted tag")
				}
			})
		}
	}
}

// TestKeyedMACRotation checks that the pads follow the key: after RefreshIn
// and SetOut both ends MAC under the new key, and tags made under the old
// key fail as before.
func TestKeyedMACRotation(t *testing.T) {
	a := NewKeyStore(0) // sender
	b := NewKeyStore(1) // receiver
	a.InstallInitial(1)
	b.InstallInitial(0)
	payload := pattern(96, 0x11)
	oldKey, _ := a.OutKey(1)
	oldAuth := a.MakeAuthenticator(2, payload)
	oldMAC := a.ComputePointMAC(1, payload)
	if oldMAC != oracleMAC(oldKey, payload) {
		t.Fatal("initial point MAC differs from crypto/hmac")
	}

	k := b.RefreshIn(0, 1, 42)
	if _, epoch := b.InKey(0); epoch != 1 {
		t.Fatalf("in-epoch after refresh = %d, want 1", epoch)
	}
	if b.CheckAuthenticator(0, payload, oldAuth) {
		t.Fatal("authenticator under the old key accepted after refresh")
	}
	if b.CheckPointMAC(0, payload, oldMAC) {
		t.Fatal("point MAC under the old key accepted after refresh")
	}

	a.SetOut(1, k, 1)
	want := oracleMAC(k, payload)
	if got := a.ComputePointMAC(1, payload); got != want {
		t.Fatalf("point MAC after SetOut = %x, want %x under the new key", got, want)
	}
	auth := a.MakeAuthenticator(2, payload)
	if auth.MACs[1] != want || auth.Epoch != 1 {
		t.Fatalf("authenticator after SetOut = %x epoch %d, want %x epoch 1", auth.MACs[1], auth.Epoch, want)
	}
	if !b.CheckAuthenticator(0, payload, auth) {
		t.Fatal("authenticator under the new key rejected")
	}
	if !b.CheckPointMAC(0, payload, a.ComputePointMAC(1, payload)) {
		t.Fatal("point MAC under the new key rejected")
	}
}

// TestMACAllocBudget pins the per-message allocation budget of the keyed MAC
// path: verifying and point MACs allocate nothing, and an authenticator
// allocates only its MACs slice.
func TestMACAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are meaningless under the race detector")
	}
	const n = 4
	sender, receiver := NewKeyStore(1), NewKeyStore(0)
	for p := uint32(0); p < n; p++ {
		sender.InstallInitial(p)
		receiver.InstallInitial(p)
	}
	payload := pattern(96, 0x5a)
	auth := sender.MakeAuthenticator(n, payload)
	mac := sender.ComputePointMAC(0, payload)
	var ok bool
	var m MAC
	var a Authenticator
	for _, c := range []struct {
		name string
		want float64
		fn   func()
	}{
		{"CheckAuthenticator", 0, func() { ok = receiver.CheckAuthenticator(1, payload, auth) }},
		{"CheckPointMAC", 0, func() { ok = receiver.CheckPointMAC(1, payload, mac) }},
		{"ComputePointMAC", 0, func() { m = sender.ComputePointMAC(0, payload) }},
		{"MakeAuthenticator", 1, func() { a = sender.MakeAuthenticator(n, payload) }},
	} {
		if got := testing.AllocsPerRun(1000, c.fn); got != c.want {
			t.Errorf("%s: %v allocs per call, want %v", c.name, got, c.want)
		}
	}
	if !ok || m != mac || a.MACs[0] != auth.MACs[0] {
		t.Fatal("keyed MAC path returned wrong results")
	}
}
