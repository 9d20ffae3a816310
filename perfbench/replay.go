package main

import (
	"bytes"
	"fmt"
	"math"
	"os"
	"time"

	"silica/internal/keystore"
	"silica/internal/ldpc"
	"silica/internal/nc"
	"silica/internal/persist"
	"silica/internal/service"
	"silica/internal/sim"
	"silica/internal/voxel"
)

// replayMaxSectors bounds the traced replay: enough sectors that a 1%
// failure rate shows as about 15 failures, few enough to finish in
// seconds.
const replayMaxSectors = 1500

// replayCounts are the replay's exact counts: for a given seed they
// repeat on every run, whatever the host.
type replayCounts struct {
	Objects, Sectors, Failed, Clean, Iterations, Mismatch int
}

// replay pushes objects through each layer's public functions in
// pipeline order, one span per call: encrypt, sector encode, modulate,
// channel, demap, LLR, decode, NC encode and reconstruct per 8-sector
// track, decrypt, and a WAL append plus fsync.
func replay(tr *tracer, objs []object, seed uint64, dir string) (replayCounts, error) {
	var rc replayCounts
	cfg := service.DefaultConfig()
	geom := cfg.Geom
	// Same code construction as the service, so the replay decodes the
	// code the data path uses.
	code, err := ldpc.NewCode(cfg.LDPCBlock, cfg.LDPCData, cfg.Seed^0xbeef)
	if err != nil {
		return rc, err
	}
	codec, err := ldpc.NewSectorCodec(code, geom.SectorPayloadBytes)
	if err != nil {
		return rc, err
	}
	group, err := nc.NewGroup(geom.InfoSectorsPerTrack, geom.RedundancySectorsPerTrack, cfg.Scheme, cfg.Seed^0x1)
	if err != nil {
		return rc, err
	}
	// The service's own sector pipeline supplies the modulation,
	// channel, demapper and iteration budget the data path uses.
	pipe := voxel.NewSectorPipeline(codec, cfg.Channel)
	plog, _, err := persist.Open(persist.Options{Dir: dir, Fingerprint: "perfbench-replay"})
	if err != nil {
		return rc, err
	}
	defer os.RemoveAll(dir)
	defer plog.Close()

	symbolsPerSector := pipe.SymbolsPerSector()
	ss := codec.AcquireScratch()
	defer codec.ReleaseScratch(ss)
	bits := make([]uint8, symbolsPerSector*voxel.BitsPerVoxel)
	symbols := make([]uint8, symbolsPerSector)
	points := make([]voxel.Point, symbolsPerSector)
	post := make([][16]float64, symbolsPerSector)
	llrs := make([]float64, symbolsPerSector*voxel.BitsPerVoxel)
	decoded := make([]byte, geom.SectorPayloadBytes)
	rng := sim.NewRNG(seed).Fork("perfbench/replay")
	ks := keystore.New()
	perTrack := geom.InfoSectorsPerTrack

	for oi, o := range objs {
		if rc.Sectors >= replayMaxSectors {
			break
		}
		rc.Objects++
		root := tr.begin(ref{})
		data := payload(o)
		kid := fmt.Sprintf("replay#%d", oi)
		if err := ks.CreateKey(kid); err != nil {
			return rc, err
		}
		sp := tr.begin(root)
		ct, err := ks.Encrypt(kid, data)
		tr.end(sp, root, "keystore.encrypt", len(data))
		if err != nil {
			return rc, err
		}

		n := (len(ct) + geom.SectorPayloadBytes - 1) / geom.SectorPayloadBytes
		tracks := (n + perTrack - 1) / perTrack
		sectors := make([][]byte, tracks*perTrack)
		for i := range sectors {
			sectors[i] = make([]byte, geom.SectorPayloadBytes)
			if off := i * geom.SectorPayloadBytes; off < len(ct) {
				copy(sectors[i], ct[off:])
			}
		}
		readBack := make([]byte, 0, n*geom.SectorPayloadBytes)
		for i := 0; i < n; i++ {
			sp = tr.begin(root)
			codec.EncodeSectorWith(ss, sectors[i], bits[:codec.EncodedBits()])
			tr.end(sp, root, "ldpc.encode", 1)
			sp = tr.begin(root)
			voxel.ModulateInto(bits, symbols)
			tr.end(sp, root, "voxel.modulate", 1)
			sp = tr.begin(root)
			recv := pipe.Ch.TransmitInto(pipe.Mod, symbols, rng, points[:0])
			tr.end(sp, root, "voxel.channel", 1)
			sp = tr.begin(root)
			pst := pipe.Demap.PosteriorsInto(recv, post[:0])
			tr.end(sp, root, "voxel.demap", 1)
			sp = tr.begin(root)
			l := voxel.BitLLRsInto(pst, llrs[:0])
			tr.end(sp, root, "voxel.llr", 1)
			sp = tr.begin(root)
			res := codec.DecodeSectorWith(ss, l[:codec.EncodedBits()], pipe.MaxIters, decoded)
			tr.end(sp, root, "ldpc.decode", 1)
			rc.Sectors++
			rc.Iterations += res.Iterations
			if res.Iterations == 0 {
				rc.Clean++
			}
			switch {
			case !res.OK:
				// An undecodable sector is an erasure; the NC layer below
				// recovers it, so the replay carries the written bytes on.
				rc.Failed++
				readBack = append(readBack, sectors[i]...)
			case !bytes.Equal(res.Payload, sectors[i]):
				rc.Mismatch++ // CRC passed on wrong bytes: a silent corruption
				readBack = append(readBack, sectors[i]...)
			default:
				readBack = append(readBack, res.Payload...)
			}
		}
		for t := 0; t < tracks; t++ {
			info := sectors[t*perTrack : (t+1)*perTrack]
			sp = tr.begin(root)
			red, err := group.EncodeRedundancy(info)
			tr.end(sp, root, "nc.encode", 1)
			if err != nil {
				return rc, err
			}
			avail := make(map[int][]byte, group.Size())
			for i := 1; i < perTrack; i++ {
				avail[i] = info[i]
			}
			for r, u := range red {
				avail[perTrack+r] = u
			}
			sp = tr.begin(root)
			got, err := group.Reconstruct(avail, []int{0})
			tr.end(sp, root, "nc.reconstruct", 1)
			if err != nil {
				return rc, err
			}
			if !bytes.Equal(got[0], info[0]) {
				rc.Mismatch++
			}
		}
		sp = tr.begin(root)
		pt, err := ks.Decrypt(kid, readBack[:len(ct)])
		tr.end(sp, root, "keystore.decrypt", len(data))
		if err != nil {
			return rc, err
		}
		if !bytes.Equal(pt, data) {
			rc.Mismatch++
		}
		sp = tr.begin(root)
		_, err = plog.Append(&persist.RecPut{Account: account, Name: o.Name, Version: 1,
			Size: int64(len(data)), KeyID: kid, Ciphertext: ct})
		if err == nil {
			err = plog.Sync()
		}
		tr.end(sp, root, "persist.append_sync", 1)
		if err != nil {
			return rc, err
		}
		tr.end(root, ref{}, "replay.object", len(data))
	}
	return rc, nil
}

// replayMetrics turns the replay's spans and counts into per-layer
// metrics.
func replayMetrics(tr *tracer, rc replayCounts) map[string]float64 {
	perUnit := func(name string, scale time.Duration) float64 {
		total, units := tr.spanStats(name)
		return ratio(float64(total)/float64(scale), float64(units))
	}
	m := map[string]float64{
		"keystore.encrypt_us_per_KB":     1000 * perUnit("keystore.encrypt", time.Microsecond),
		"keystore.decrypt_us_per_KB":     1000 * perUnit("keystore.decrypt", time.Microsecond),
		"ldpc.encode_us_per_sector":      perUnit("ldpc.encode", time.Microsecond),
		"ldpc.decode_us_per_sector":      perUnit("ldpc.decode", time.Microsecond),
		"voxel.modulate_us_per_sector":   perUnit("voxel.modulate", time.Microsecond),
		"voxel.channel_us_per_sector":    perUnit("voxel.channel", time.Microsecond),
		"voxel.demap_us_per_sector":      perUnit("voxel.demap", time.Microsecond),
		"voxel.llr_us_per_sector":        perUnit("voxel.llr", time.Microsecond),
		"nc.encode_us_per_track":         perUnit("nc.encode", time.Microsecond),
		"nc.reconstruct_us_per_sector":   perUnit("nc.reconstruct", time.Microsecond),
		"persist.replay.append_sync_ms":  perUnit("persist.append_sync", time.Millisecond),
		"ldpc.decode.sectors":            float64(rc.Sectors),
		"ldpc.decode.iters_per_sector":   ratio(float64(rc.Iterations), float64(rc.Sectors)),
		"ldpc.decode.clean_frac":         ratio(float64(rc.Clean), float64(rc.Sectors)),
		"ldpc.decode.fail_frac":          ratio(float64(rc.Failed), float64(rc.Sectors)),
		"ldpc.decode.silent_corruptions": float64(rc.Mismatch),
	}
	m["ldpc.decode.fail_ci95_lo"], m["ldpc.decode.fail_ci95_hi"] = wilson(rc.Failed, rc.Sectors)
	return m
}

// wilson is the 95% Wilson score interval of k successes in n trials.
func wilson(k, n int) (lo, hi float64) {
	if n == 0 {
		return 0, 1
	}
	const z = 1.959963984540054
	p := float64(k) / float64(n)
	nf := float64(n)
	den := 1 + z*z/nf
	mid := (p + z*z/(2*nf)) / den
	half := z * math.Sqrt(p*(1-p)/nf+z*z/(4*nf*nf)) / den
	return math.Max(0, mid-half), math.Min(1, mid+half)
}
