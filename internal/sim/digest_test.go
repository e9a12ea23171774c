package sim

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"testing"

	"udpsim/internal/obs"
	"udpsim/internal/workload"
)

// pinnedResultDigests holds the SHA-256 of the JSON encoding of the full
// Result of every mechanism on the full mysql and xgboost
// profiles over a short region (see digestConfig). A pure-speed change
// must leave every entry untouched.
//
// Update an entry only together with a CHANGES.md entry that names the
// mechanisms whose results changed on purpose, and why. A mismatch
// reports the new digest to paste here.
var pinnedResultDigests = map[string]string{
	"mysql/baseline":         "edf4663b95479f4efa721789c3b1eb54a6308a43f8e344fc562b33d76c4878b9",
	"mysql/no-prefetch":      "edf64aa95d28095c056cc97eddd90c87c0b5cb09f8464ff248e85542ee5093f1",
	"mysql/perfect-icache":   "7c20128d1892c84eaab8f74fb95223dd079f68a507306c3e8dcfad8b8a5dc158",
	"mysql/uftq-aur":         "9e1dbb02786da90cd2d8675ac6176d6a266faf957242c730edc2c4a725ab7468",
	"mysql/uftq-atr":         "af9e793fdfc6a527527e5b7a8965473ef06ecad5327284495b823dcf7bc3a631",
	"mysql/uftq-atr-aur":     "e6c057b3065cdb53343fbae48704b54f342cdd3c730f37b1bc1398c27430d2de",
	"mysql/udp":              "167d99dbebd1f81edbd19ecd003f0223c2aef5b18a4e42100e8f0bb7bc0bef00",
	"mysql/udp-infinite":     "1b1e4b3ad72f50026fc73f06b7b2d3b845763edc281deb8fcad592e1d3aad9c2",
	"mysql/eip":              "1658f690bafc5a43b802b4ada7c19371c8659d9d44476e0491d58866db6c7866",
	"xgboost/baseline":       "9d6565572f953c62bf879dcd9e3013d1c91e23d8c6c5e7cb07f80751551760f4",
	"xgboost/no-prefetch":    "cfa87d91e1ede15da51dd6656c1522f82e02c74fe308b220e7753ef32a1dcb30",
	"xgboost/perfect-icache": "0aced50fba0abbb4f6fbcb7bfce0d76c36cdf225bcad0078d7b4baf8ef2e1105",
	"xgboost/uftq-aur":       "e84c1f45e0faccb79cca6a48c2fb6a6fcafb8f1063428fd46271702d64c43a9c",
	"xgboost/uftq-atr":       "fd1e6cf7f5c5a05bd46ecab2b0ea20be66f71cd64daf439c6545405634562fc1",
	"xgboost/uftq-atr-aur":   "0a93041c5049f0b4f67d8dcaccccf49ddd3e3917aedc872e2d9401e3e4c3f476",
	"xgboost/udp":            "7798d7d3cf70233426f725442e04a1509e87f99e09fc49b262239fe753f4badc",
	"xgboost/udp-infinite":   "c94eff6ece8e1885871398b709c15f7a72ac848dfa9488b4b9cf81f501c851f0",
	"xgboost/eip":            "c8e1132542564bcb2401ef595822c813b3ad722133268545f37507f4a361aa3e",
}

// digestConfig is the short region every pinned digest covers: long
// enough that xgboost's loads back up behind a full L1D MSHR file and
// branch recoveries flush issued work, short enough for tier-1.
func digestConfig(p workload.Profile, mech Mechanism) Config {
	cfg := NewConfig(p, mech)
	cfg.WarmupInstructions = 20_000
	cfg.MaxInstructions = 80_000
	return cfg
}

func resultDigest(r Result) (string, error) {
	b, err := json.Marshal(r)
	if err != nil {
		return "", err
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:]), nil
}

// observedResult runs cfg with a full observer attached: interval
// sampler, tracer and prefetch lifecycle.
func observedResult(cfg Config) (Result, error) {
	prog, err := SharedImage(cfg.Workload)
	if err != nil {
		return Result{}, err
	}
	m, err := NewMachineWithProgram(cfg, prog)
	if err != nil {
		return Result{}, err
	}
	m.AttachObserver(&obs.Observer{
		Interval: 5_000,
		Trace:    obs.NewTracer(1 << 12),
		Life:     obs.NewLifecycle(),
	})
	return m.Run(), nil
}

// TestResultDigestPinned makes bit-identity of every Result a tier-1
// property instead of something only the benchmark's digest line shows.
//
// It also runs every cell with a full observer, whose Result must equal
// the unobserved one apart from Lifecycle: observing must not perturb
// the simulation. An observed backend walks its whole issue list every
// cycle, so this also compares the issue memo on against memo off.
func TestResultDigestPinned(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode: skipping full-profile digest runs")
	}
	seen := 0
	for _, w := range []string{"mysql", "xgboost"} {
		p := workload.MustByName(w)
		for _, mech := range Mechanisms() {
			key := w + "/" + string(mech)
			r, err := RunOne(digestConfig(p, mech))
			if err != nil {
				t.Fatalf("%s: %v", key, err)
			}
			got, err := resultDigest(r)
			if err != nil {
				t.Fatalf("%s: %v", key, err)
			}
			o, err := observedResult(digestConfig(p, mech))
			if err != nil {
				t.Fatalf("%s observed: %v", key, err)
			}
			if !o.Lifecycle.Tracked {
				t.Errorf("%s observed: lifecycle not tracked", key)
			}
			o.Lifecycle = r.Lifecycle
			if od, err := resultDigest(o); err != nil || od != got {
				t.Errorf("%s: observed Result digest %s (err %v), unobserved %s", key, od, err, got)
			}
			seen++
			want, ok := pinnedResultDigests[key]
			switch {
			case !ok:
				t.Errorf("%s: no pinned digest; got %q", key, got)
			case got != want:
				t.Errorf("%s: Result digest %s, pinned %s", key, got, want)
			}
		}
	}
	if seen != len(pinnedResultDigests) {
		t.Errorf("ran %d cells, %d digests pinned: remove the stale entries", seen, len(pinnedResultDigests))
	}
}
