package runtime

import (
	"sort"
	"strings"
)

// tomb is a node of the tombstone trie, one per path segment on the way to
// something released. The session a node stands for is released when the
// node is dead, or when its last segment is a number inside its parent's
// spans; everything under a released session is released with it, so such
// a node keeps nothing beneath it.
type tomb struct {
	dead  bool             // this session was released by name
	spans []span           // released numbered children: sorted, disjoint, non-adjacent
	kids  map[string]*tomb // children that are dead or have tombstones beneath them
}

// span is the half-open interval [lo, hi) of released instance numbers.
type span struct{ lo, hi int }

// number parses a path segment as an instance number: canonical decimal —
// digits only, no sign, no leading zero — which is what SubSession writes
// for an int part. Anything else ("007", "+7", "probe") is a name, so two
// sessions are never retired by one number.
func number(seg string) (int, bool) {
	if seg == "" || len(seg) > 18 || (seg[0] == '0' && len(seg) > 1) {
		return 0, false
	}
	k := 0
	for i := 0; i < len(seg); i++ {
		d := seg[i] - '0'
		if d > 9 {
			return 0, false
		}
		k = k*10 + int(d)
	}
	return k, true
}

// holds reports whether instance k is inside a released interval.
func (t *tomb) holds(k int) bool {
	i := sort.Search(len(t.spans), func(i int) bool { return t.spans[i].hi > k })
	return i < len(t.spans) && t.spans[i].lo <= k
}

// add releases the instances [lo, hi), merging with every interval the new
// one overlaps or touches, and drops the tombstones under those instances.
// It reports whether anything was newly released.
func (t *tomb) add(lo, hi int) bool {
	// spans[i:j] are the intervals that overlap or touch [lo, hi).
	i := sort.Search(len(t.spans), func(i int) bool { return t.spans[i].hi >= lo })
	j := sort.Search(len(t.spans), func(j int) bool { return t.spans[j].lo > hi })
	if i < j && t.spans[i].lo <= lo && t.spans[i].hi >= hi {
		return false
	}
	if i < j {
		lo, hi = min(lo, t.spans[i].lo), max(hi, t.spans[j-1].hi)
		t.spans = append(t.spans[:i+1], t.spans[j:]...)
	} else {
		t.spans = append(t.spans, span{})
		copy(t.spans[i+1:], t.spans[i:])
	}
	t.spans[i] = span{lo, hi}
	for seg := range t.kids {
		if k, ok := number(seg); ok && lo <= k && k < hi {
			delete(t.kids, seg)
		}
	}
	return true
}

// kid returns the child for seg, creating it if asked to.
func (t *tomb) kid(seg string, create bool) *tomb {
	c := t.kids[seg]
	if c == nil && create {
		if t.kids == nil {
			t.kids = make(map[string]*tomb)
		}
		c = &tomb{}
		t.kids[strings.Clone(seg)] = c
	}
	return c
}

// walk follows session's segments from t and returns the node of the last
// one, creating the path if asked to. released reports that the session
// already lies at or under a released one (node is nil then); a nil node
// with released false means no tombstone is that deep.
func (t *tomb) walk(session string, create bool) (node *tomb, released bool) {
	for more := true; more && t != nil; {
		var seg string
		seg, session, more = strings.Cut(session, "/")
		if k, ok := number(seg); ok && t.holds(k) {
			return nil, true
		}
		if t = t.kid(seg, create); t != nil && t.dead {
			return nil, true
		}
	}
	return t, false
}

// under reports whether s lies beneath session as a path.
func under(s, session string) bool {
	return len(s) > len(session) && s[len(session)] == '/' && strings.HasPrefix(s, session)
}

// Release retires one instance: every mailbox at session or under session/
// is closed (blocked receivers return ErrClosed) and deleted, and a
// tombstone replaces it and any tombstones beneath it, so from now on
// Dispatch drops envelopes for those sessions and Mailbox hands out a
// closed mailbox instead of creating one. Siblings — a/10 beside a/1 —
// the session's ancestors and RoutePrefix claims are untouched. Releasing
// a released session does nothing. A session whose last segment is a number
// joins its parent's intervals; any other, top-level ones included, is
// released by name.
//
// The caller decides when nobody needs the instance any more — for a
// one-shot agreement, once n−t parties have announced its output (see
// internal/core).
func (nd *Node) Release(session string) {
	if i := strings.LastIndexByte(session, '/'); i >= 0 {
		if k, ok := number(session[i+1:]); ok {
			nd.release(session[:i], k, k+1)
			return
		}
	}
	nd.mu.Lock()
	t, released := nd.tombs.walk(session, true)
	if released {
		nd.mu.Unlock()
		return
	}
	*t = tomb{dead: true}
	dead := nd.reap(func(s string) bool { return s == session || under(s, session) })
	nd.mu.Unlock()
	closeAll(dead)
}

// ReleaseBelow retires the instances family/0 … family/(below−1) as Release
// does each: their mailboxes are closed and deleted and the interval
// [0, below) joins the family's tombstones. Instances at or above below,
// other families and RoutePrefix claims are untouched, and a call that
// releases nothing new does nothing. The state kept per family is one
// interval, however many instances were released.
//
// The caller decides when an instance is no longer needed by anyone — for
// a ledger slot, once a quorum's stores hold it (see internal/shard).
func (nd *Node) ReleaseBelow(family string, below int) {
	if below > 0 {
		nd.release(family, 0, below)
	}
}

// release retires the instances family/lo … family/(hi−1).
func (nd *Node) release(family string, lo, hi int) {
	nd.mu.Lock()
	t, released := nd.tombs.walk(family, true)
	if released || !t.add(lo, hi) {
		nd.mu.Unlock()
		return
	}
	dead := nd.reap(func(s string) bool {
		if !under(s, family) {
			return false
		}
		seg, _, _ := strings.Cut(s[len(family)+1:], "/")
		k, ok := number(seg)
		return ok && lo <= k && k < hi
	})
	nd.mu.Unlock()
	closeAll(dead)
}

// reap deletes the mailboxes whose session gone selects and returns them
// for closing outside the lock. Caller holds mu.
func (nd *Node) reap(gone func(session string) bool) []*Mailbox {
	var dead []*Mailbox
	for s, b := range nd.boxes {
		if gone(s) {
			delete(nd.boxes, s)
			dead = append(dead, b)
		}
	}
	nd.activeBoxes.Set(int64(len(nd.boxes)))
	return dead
}

func closeAll(boxes []*Mailbox) {
	for _, b := range boxes {
		b.close()
	}
}

// ReleasedBelow returns family's tombstone cursor: the end of its released
// interval that starts at instance 0, so every instance below it has been
// released.
func (nd *Node) ReleasedBelow(family string) int {
	nd.mu.Lock()
	defer nd.mu.Unlock()
	t, _ := nd.tombs.walk(family, false)
	if t == nil || len(t.spans) == 0 || t.spans[0].lo != 0 {
		return 0
	}
	return t.spans[0].hi
}

// retired reports whether session lies at or under a released one. It is
// consulted only when a session has no mailbox — creation is the rare
// path, and a live session never pays for it — and costs one small map
// lookup per path segment, however many sessions were released. Caller
// holds mu.
func (nd *Node) retired(session string) bool {
	_, released := nd.tombs.walk(session, false)
	return released
}
