package statesync

import (
	"crypto/sha256"

	"asyncft/internal/wire"
)

// boundary describes one chunk of a head: the chunk covers slots
// [previous end, end), content is the SHA-256 of its canonical encoding
// (the pull key), and chain is the ledger digest chain value after slot
// end — what the decoded chunk must re-chain to.
type boundary struct {
	end            int
	chain, content [sha256.Size]byte
}

// head is a server's answer to a head request: the digest-chain anchor at
// the range start plus one boundary per chunk. Nonfaulty servers encode
// the same head for the same request, which is what the client's t+1
// quorum keys on.
type head struct {
	req     headReq
	chainLo [sha256.Size]byte
	bounds  []boundary
}

func encodeHeadReq(r headReq) []byte {
	var w wire.Writer
	w.Int(r.lo)
	w.Int(r.hi)
	w.Int(r.chunk)
	w.Uint(r.nonce)
	return w.Bytes()
}

func parseHeadReq(payload []byte) (headReq, bool) {
	if len(payload) > 64 {
		return headReq{}, false
	}
	r := wire.NewReader(payload)
	req := headReq{lo: r.Int(), hi: r.Int(), chunk: r.Int(), nonce: r.Uint()}
	if r.Err() != nil {
		return headReq{}, false
	}
	return req, true
}

func encodeCursor(cursor int) []byte {
	var w wire.Writer
	w.Int(cursor)
	return w.Bytes()
}

func parseCursor(payload []byte) (int, bool) {
	if len(payload) > 10 {
		return 0, false
	}
	r := wire.NewReader(payload)
	c := r.Int()
	return c, r.Err() == nil
}

func encodeHead(h head) []byte {
	var w wire.Writer
	w.Int(h.req.lo)
	w.Int(h.req.hi)
	w.Int(h.req.chunk)
	w.Uint(h.req.nonce)
	w.BytesField(h.chainLo[:])
	w.Int(len(h.bounds))
	for _, b := range h.bounds {
		w.Int(b.end)
		w.BytesField(b.chain[:])
		w.BytesField(b.content[:])
	}
	return w.Bytes()
}

// parseHead decodes a head payload, enforcing the caps a Byzantine server
// could abuse (bound count, digest sizes, monotone boundary ends). The
// result is structurally valid; whether it is truthful is the quorum's
// and the chain verification's business.
func parseHead(payload []byte) (head, bool) {
	if len(payload) > 128+maxBoundsPerHead*(80) {
		return head{}, false
	}
	r := wire.NewReader(payload)
	h := head{req: headReq{lo: r.Int(), hi: r.Int(), chunk: r.Int(), nonce: r.Uint()}}
	chainLo := r.BytesField(sha256.Size)
	n := r.Int()
	if r.Err() != nil || len(chainLo) != sha256.Size || !h.req.valid() || n > maxBoundsPerHead {
		return head{}, false
	}
	copy(h.chainLo[:], chainLo)
	prev := h.req.lo
	for i := 0; i < n; i++ {
		var b boundary
		b.end = r.Int()
		chain := r.BytesField(sha256.Size)
		content := r.BytesField(sha256.Size)
		if r.Err() != nil || len(chain) != sha256.Size || len(content) != sha256.Size ||
			b.end <= prev || b.end > h.req.hi {
			return head{}, false
		}
		copy(b.chain[:], chain)
		copy(b.content[:], content)
		h.bounds = append(h.bounds, b)
		prev = b.end
	}
	if prev != h.req.hi || len(h.bounds) == 0 {
		return head{}, false
	}
	return h, true
}
