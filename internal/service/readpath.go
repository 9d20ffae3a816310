package service

import (
	"context"
	"fmt"
	"runtime"
	"sort"
	"time"

	"silica/internal/backend"
	"silica/internal/faults"
	"silica/internal/keystore"
	"silica/internal/media"
	"silica/internal/metadata"
	"silica/internal/obs"
	"silica/internal/repair"
	"silica/internal/sim"
)

// readRNG derives an independent noise stream for one read operation,
// so concurrent Gets never contend on (or corrupt) shared generator
// state.
func (s *Service) readRNG() *sim.RNG {
	return s.rootRNG.Fork(fmt.Sprintf("read-%d", s.opSeq.Add(1)))
}

// Get reads back the latest version of a file through the full §5
// recovery hierarchy and decrypts it. Staged (not yet flushed) files
// are served from the staging tier, as the online tier does in
// production. Get holds no service-wide lock across the decode, so
// reads of flushed extents proceed in parallel with staging writes
// and with each other.
func (s *Service) Get(account, name string) ([]byte, error) {
	return s.GetCtx(context.Background(), account, name)
}

// GetCtx is Get recording trace spans (decode, plus recovery-tier
// escalations) into the trace carried by ctx, if any.
func (s *Service) GetCtx(ctx context.Context, account, name string) ([]byte, error) {
	key := metadata.FileKey{Account: account, Name: name}
	rng := s.readRNG()
	for attempt := 0; ; attempt++ {
		if err := ctx.Err(); err != nil {
			return nil, fmt.Errorf("service: get canceled: %w", err)
		}
		v, err := s.meta.Get(key)
		if err != nil {
			return nil, err
		}
		var ct []byte
		switch v.State {
		case metadata.Staged:
			f, ok := s.tier.Find(key, v.Version)
			if !ok {
				// Two benign races land here: a concurrent Flush just
				// promoted the version to durable, or a concurrent Put
				// has registered the version and is about to admit its
				// bytes. Re-reading metadata resolves both.
				if attempt < 64 {
					runtime.Gosched()
					continue
				}
				return nil, fmt.Errorf("service: %v v%d staged but not in tier", key, v.Version)
			}
			ct = append([]byte(nil), f.Data...)
			s.om.readsStaged.Inc()
		case metadata.Durable:
			decode := obs.StartSpan(ctx, "decode")
			ct, err = s.readExtents(ctx, v, rng)
			decode.End()
			if err != nil {
				return nil, err
			}
			s.om.readsDurable.Inc()
		default:
			return nil, fmt.Errorf("service: %v in unexpected state %v", key, v.State)
		}
		ctLen := v.Size + keystore.Overhead
		if int64(len(ct)) < ctLen {
			return nil, fmt.Errorf("service: %v short read: %d < %d", key, len(ct), ctLen)
		}
		return s.keys.Decrypt(v.KeyID, ct[:ctLen])
	}
}

// readExtents assembles a version's ciphertext from its shards in
// shard order.
func (s *Service) readExtents(ctx context.Context, v *metadata.Version, rng *sim.RNG) ([]byte, error) {
	extents := append([]metadata.Extent(nil), v.Extents...)
	sort.Slice(extents, func(i, j int) bool { return extents[i].Shard < extents[j].Shard })
	var out []byte
	for _, e := range extents {
		// Bill the extent's track span to the mechanical backend before
		// decoding it: under the twin this blocks for drive allocation,
		// shuttle travel, mount, seek and scan at the configured speedup.
		iPerTrack := s.cfg.Geom.InfoSectorsPerTrack
		first := e.FirstSector / iPerTrack
		last := (e.FirstSector + e.SectorCount - 1) / iPerTrack
		if last < first {
			last = first
		}
		if err := s.chargeMech(ctx, backend.Op{
			Kind:       backend.OpRead,
			Platter:    e.Platter,
			StartTrack: first,
			TrackCount: last - first + 1,
			Bytes:      int64(e.SectorCount) * int64(s.cfg.Geom.SectorPayloadBytes),
		}); err != nil {
			return nil, fmt.Errorf("shard %d: %w", e.Shard, err)
		}
		for k := 0; k < e.SectorCount; k++ {
			payload, err := s.readInfoSector(ctx, e.Platter, e.FirstSector+k, rng)
			if err != nil {
				return nil, fmt.Errorf("shard %d sector %d: %w", e.Shard, e.FirstSector+k, err)
			}
			out = append(out, payload...)
		}
	}
	return out, nil
}

// readInfoSector reads one information sector's payload, escalating
// through the recovery hierarchy:
//  1. direct LDPC decode of the sector;
//  2. within-track network coding over the sector's track;
//  3. large-group network coding across the platter's tracks;
//  4. cross-platter network coding over the platter-set.
func (s *Service) readInfoSector(ctx context.Context, id media.PlatterID, infoSector int, rng *sim.RNG) ([]byte, error) {
	pi, ok := s.platterByID(id)
	if !ok {
		return nil, fmt.Errorf("%w: platter %d unknown", ErrUnavailable, id)
	}
	geom := s.cfg.Geom
	iPerTrack := geom.InfoSectorsPerTrack
	infoTrack := infoSector / iPerTrack
	sPos := infoSector % iPerTrack
	if pi.rec.Unavailable() {
		// Level 4: the platter is unavailable; rebuild from its set.
		sp := obs.StartSpan(ctx, "recover_set")
		payload, err := s.recoverFromSet(pi, infoSector, rng)
		sp.End()
		if err != nil {
			return nil, err
		}
		s.om.recSet.Inc()
		pi.rec.ReportTier(repair.TierSet)
		return payload, nil
	}
	phys := geom.InfoTrackPhysical(infoTrack)
	if payload, ok := s.decodeSector(pi, phys, sPos, rng); ok {
		return payload, nil
	}
	// Level 2: read the whole track, repair via within-track NC.
	sp := obs.StartSpan(ctx, "recover_sector")
	if payload, ok := s.repairWithinTrack(pi, phys, sPos, rng); ok {
		sp.End()
		s.om.recSector.Inc()
		pi.rec.ReportTier(repair.TierSector)
		return payload, nil
	}
	sp.End()
	// Level 3: rebuild the whole track from its large group.
	sp = obs.StartSpan(ctx, "recover_track")
	if payload, ok := s.rebuildTrackSector(pi, infoTrack, sPos, rng); ok {
		sp.End()
		s.om.recTrack.Inc()
		pi.rec.ReportTier(repair.TierTrack)
		return payload, nil
	}
	sp.End()
	return nil, fmt.Errorf("%w: platter %d sector %d beyond all coding levels", ErrUnavailable, id, infoSector)
}

// decodeSector attempts a direct LDPC decode of one physical sector,
// descrambling the payload (see scramble in writepath.go). Published
// platter media is immutable, so no lock is held across the decode.
// Injected media.read faults land here, upstream of the decode, so
// every consumer — foreground reads, within-track repair, large-group
// rebuild, set recovery, and the rebuilder's member decode — sees the
// same failure surface and escalates through the normal hierarchy.
func (s *Service) decodeSector(pi *platterInfo, physTrack, sPos int, rng *sim.RNG) ([]byte, bool) {
	cs := s.acquireScratch()
	defer s.releaseScratch(cs)
	return s.decodeSectorWith(cs, pi, physTrack, sPos, rng)
}

// decodeSectorWith is decodeSector on caller-owned scratch, the form
// chunked loops (rebuild's member-decode grid) use to amortize scratch
// acquisition. The decode lands in the scratch's payload buffer; the
// descramble below makes the caller's copy, so the returned payload is
// the only allocation on the hot path.
func (s *Service) decodeSectorWith(cs *codecScratch, pi *platterInfo, physTrack, sPos int, rng *sim.RNG) ([]byte, bool) {
	symbols, ok := pi.platter.ReadSectorInto(media.SectorID{Track: physTrack, Sector: sPos}, cs.symbols)
	if !ok {
		return nil, false
	}
	if err := s.faults.CheckData(faults.OpMediaRead, int64(pi.platter.ID), physTrack, sPos, symbols); err != nil {
		return nil, false
	}
	t0 := time.Now()
	res := s.pipe.ReadSectorWithBuf(cs.sector, symbols, rng, cs.payload)
	s.om.observeCodec(s.om.codecDecode, s.om.codecDecSectors, 1, time.Since(t0))
	if !res.OK {
		return nil, false
	}
	return scramble(res.Payload, pi.platter.ID, physTrack, sPos), true
}

// repairWithinTrack reads every sector of a track and reconstructs the
// requested position via the within-track group.
func (s *Service) repairWithinTrack(pi *platterInfo, physTrack, want int, rng *sim.RNG) ([]byte, bool) {
	geom := s.cfg.Geom
	avail := make(map[int][]byte)
	for sPos := 0; sPos < geom.SectorsPerTrack(); sPos++ {
		if payload, ok := s.decodeSector(pi, physTrack, sPos, rng); ok {
			avail[sPos] = payload
		}
	}
	rec, err := s.withinTrack.Reconstruct(avail, []int{want})
	if err != nil {
		return nil, false
	}
	return rec[want], true
}

// rebuildTrackSector reconstructs sector sPos of information track
// infoTrack from the platter's large group: the matching sector
// position of the other member tracks plus the group's redundancy
// tracks. Member tracks beyond the written range are zero.
func (s *Service) rebuildTrackSector(pi *platterInfo, infoTrack, sPos int, rng *sim.RNG) ([]byte, bool) {
	geom := s.cfg.Geom
	lgi := geom.LargeGroupInfoTracks
	g := infoTrack / lgi
	wantUnit := infoTrack % lgi
	usedTracks := (pi.usedInfoSectors + geom.InfoSectorsPerTrack - 1) / geom.InfoSectorsPerTrack
	zero := make([]byte, geom.SectorPayloadBytes)
	avail := make(map[int][]byte)
	for m := 0; m < lgi; m++ {
		if m == wantUnit {
			continue
		}
		it := g*lgi + m
		if it >= usedTracks {
			avail[m] = zero
			continue
		}
		phys := geom.InfoTrackPhysical(it)
		if payload, ok := s.decodeSector(pi, phys, sPos, rng); ok {
			avail[m] = payload
		} else if payload, ok := s.repairWithinTrack(pi, phys, sPos, rng); ok {
			avail[m] = payload
		}
	}
	for j := 0; j < geom.LargeGroupRedTracks; j++ {
		phys := geom.LargeGroupRedTrack(g, j)
		if payload, ok := s.decodeSector(pi, phys, sPos, rng); ok {
			avail[lgi+j] = payload
		}
	}
	rec, err := s.largeGroup.Reconstruct(avail, []int{wantUnit})
	if err != nil {
		return nil, false
	}
	return rec[wantUnit], true
}

// RecyclePlatter melts a platter down as blank feedstock (§3: "if a
// platter no longer contains live data, it can be melted down and
// sustainably recycled"). It refuses while any live version still
// points at the platter.
func (s *Service) RecyclePlatter(id media.PlatterID) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	pi, ok := s.platters[id]
	if !ok {
		return fmt.Errorf("service: unknown platter %d", id)
	}
	if live := s.meta.LiveBytesOnPlatter(id); live > 0 {
		return fmt.Errorf("service: platter %d still holds %d live sectors", id, live)
	}
	if err := pi.platter.Transition(media.Recycled); err != nil {
		return err
	}
	delete(s.platters, id)
	_ = s.health.Transition(id, repair.Retired, "recycled as feedstock")
	s.addStats(func(st *Stats) { st.PlattersRecycled++ })
	return nil
}

// recoverFromSet rebuilds one information sector of an unavailable
// platter from its platter-set: the matching sector of every available
// member (§5 cross-platter NC; §7.6's 16x read amplification).
func (s *Service) recoverFromSet(pi *platterInfo, infoSector int, rng *sim.RNG) ([]byte, error) {
	// Snapshot the set membership under the read lock; the member
	// platters themselves are immutable once published.
	s.mu.RLock()
	setIdx, setPos := pi.set, pi.setPos
	var members []media.PlatterID
	var infos []*platterInfo
	if setIdx >= 0 && setIdx < len(s.sets) {
		members = s.sets[setIdx]
		infos = make([]*platterInfo, len(members))
		for i, mid := range members {
			infos[i] = s.platters[mid]
		}
	}
	s.mu.RUnlock()
	if members == nil {
		return nil, fmt.Errorf("%w: platter %d has no completed platter-set", ErrUnavailable, pi.platter.ID)
	}
	geom := s.cfg.Geom
	zero := make([]byte, geom.SectorPayloadBytes)
	avail := make(map[int][]byte)
	for pos, mpi := range infos {
		if pos == setPos {
			continue
		}
		if mpi == nil || mpi.rec.Unavailable() {
			continue
		}
		usedTracks := (mpi.usedInfoSectors + geom.InfoSectorsPerTrack - 1) / geom.InfoSectorsPerTrack
		infoTrack := infoSector / geom.InfoSectorsPerTrack
		sPos := infoSector % geom.InfoSectorsPerTrack
		if infoTrack >= usedTracks {
			avail[pos] = zero
			continue
		}
		phys := geom.InfoTrackPhysical(infoTrack)
		if payload, ok := s.decodeSector(mpi, phys, sPos, rng); ok {
			avail[pos] = payload
		} else if payload, ok := s.repairWithinTrack(mpi, phys, sPos, rng); ok {
			avail[pos] = payload
		}
	}
	rec, err := s.setGroup.Reconstruct(avail, []int{setPos})
	if err != nil {
		return nil, fmt.Errorf("%w: set recovery failed: %v", ErrUnavailable, err)
	}
	return rec[setPos], nil
}
