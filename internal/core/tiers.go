package core

import (
	"context"
	"errors"
	"log/slog"
	"time"

	"streammap/internal/artifact"
	"streammap/internal/obs"
)

// The persistent tiers behind the table. Every tier is an ArtifactStore
// keyed by KeyHash and holds the exact bytes a fresh compile encoded; the
// store vouches for them (fleet.DirStore: one read, one SHA-256 against
// the sidecar), so a hit is served without being decoded. Entries that
// fail validation are quarantined, not silently overwritten: the bytes
// move aside to *.corrupt and ServiceStats.CorruptQuarantined counts them.

// probe walks the persistent tiers in order and returns the first entry
// accept takes, with the index of the tier that held it; (nil, 0) when
// none does. Verified bytes accept refuses are quarantined — unless they
// are another format version's (artifact.ErrVersion), which is an upgrade
// path: a plain miss the next compile overwrites.
func (s *Service) probe(ctx context.Context, hash string, accept func([]byte) error) ([]byte, int) {
	for i, t := range s.tiers {
		start := time.Now()
		_, span := obs.StartSpan(ctx, t.span)
		data, err := t.store.Get(hash)
		if err == nil && data != nil {
			if aerr := accept(data); aerr != nil {
				data = nil
				if !errors.Is(aerr, artifact.ErrVersion) && t.store.Quarantine(hash) == nil {
					err = aerr
				}
			}
		}
		if err != nil {
			s.corruptQuarantined.Inc()
			s.log.Warn("quarantined corrupt "+t.name+"-tier entry",
				slog.String("hash", hash), slog.String("cause", err.Error()))
		}
		if data != nil {
			span.SetNote("hit")
		} else {
			span.SetNote("miss")
		}
		span.End()
		t.probe.ObserveSince(start)
		if data != nil {
			t.hits.Inc()
			return data, i
		}
	}
	return nil, 0
}

// persist writes one encoded artifact to each of the given tiers. Failures
// are counted and logged but non-fatal: every tier is an optimization,
// never a correctness dependency.
func (s *Service) persist(hash string, data []byte, tiers []*tier) {
	for _, t := range tiers {
		if err := t.store.Put(hash, data); err != nil {
			t.errors.Inc()
			s.log.Warn(t.name+"-tier write failed", slog.String("hash", hash), slog.String("error", err.Error()))
		} else {
			t.writes.Inc()
		}
	}
}

// EncodedByHash returns the encoded artifact for a key hash if this node
// already has it — in the table, or in a persistent tier (which puts it in
// the table). It never compiles and never waits on a run in flight: it is
// how a fleet peer, or the routing layer in front of a request this node
// does not own, asks "do you have these bytes" and must be cheap or absent.
func (s *Service) EncodedByHash(ctx context.Context, hash string) ([]byte, bool) {
	s.mu.Lock()
	el, ok := s.table[hash]
	if ok {
		s.lru.MoveToFront(el)
	}
	s.mu.Unlock()
	if ok {
		e := el.Value.(*entry)
		select {
		case <-e.done:
			if e.err != nil {
				return nil, false
			}
			s.hits.Inc()
			return e.data, true
		default:
			return nil, false // still compiling: a miss, not a wait
		}
	}
	data, i := s.probe(ctx, hash, func([]byte) error { return nil })
	if data == nil {
		return nil, false
	}
	s.install(hash, data, s.tiers[:i])
	return data, true
}

// Ingest installs an artifact's encoded bytes, already verified against
// the content hash its sender declared, as if they had been compiled here:
// into the table, and into this node's private disk tier. This is what
// makes hot keys replicate — the first request for a foreign key pays one
// proxied compile, every later one is a local hit. The shared store is not
// written: the key's owner already did that.
func (s *Service) Ingest(hash string, data []byte) {
	s.install(hash, data, s.tiers[:s.private])
}

// install puts finished bytes in the table under hash, unless an entry is
// already there, and persists them to tiers in the background.
func (s *Service) install(hash string, data []byte, tiers []*tier) {
	e := &entry{key: hash, done: make(chan struct{}), data: data}
	close(e.done)
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	if _, ok := s.table[hash]; !ok {
		s.table[hash] = s.lru.PushFront(e)
		s.evictLocked()
	}
	if len(tiers) > 0 {
		s.pending++
	}
	s.mu.Unlock()
	if len(tiers) > 0 {
		go func() {
			defer s.finished()
			s.persist(hash, data, tiers)
		}()
	}
}
