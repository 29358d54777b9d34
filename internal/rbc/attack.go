package rbc

import (
	"context"
	"crypto/sha256"

	"asyncft/internal/runtime"
)

// VouchWithoutValue is a Byzantine behavior for adversarial tests of digest
// dispersal: the party vouches for a value it never keeps. It sends CECHO
// and CREADY for the first digest the session shows it — the sender's
// CINIT, or any peer's CECHO or CREADY — so honest parties count it among
// the holders they may pull from, and answers every CPULL with bytes of
// another digest. Totality must survive it: of any t+1 parties that echoed
// a digest one is nonfaulty and serves the value. It runs until ctx ends.
func VouchWithoutValue(ctx context.Context, env *runtime.Env, session string) error {
	vouched := false
	for {
		msg, err := env.Recv(ctx, session)
		if err != nil {
			return err
		}
		var body []byte
		switch msg.Type {
		case msgCInit:
			body = appendDigest(nil, sha256.Sum256(msg.Payload))
		case msgCEcho, msgCReady:
			body = msg.Payload
		case msgCPull:
			env.Send(msg.From, session, msgCFull, []byte("not the value that was pulled"))
		}
		if body != nil && !vouched {
			vouched = true
			env.SendAll(session, msgCEcho, body)
			env.SendAll(session, msgCReady, body)
		}
	}
}
