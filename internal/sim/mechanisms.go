package sim

import (
	"fmt"
	"sort"
	"strings"

	"udpsim/internal/core"
	"udpsim/internal/eip"
	"udpsim/internal/frontend"
)

// Mechanism selects the instruction-prefetch policy under evaluation.
type Mechanism string

// Mechanisms evaluated in the paper.
const (
	// MechBaseline is state-of-the-art FDIP with a fixed FTQ (depth 32
	// unless overridden) — the paper's baseline [28].
	MechBaseline Mechanism = "baseline"
	// MechNoPrefetch disables FDIP prefetching.
	MechNoPrefetch Mechanism = "no-prefetch"
	// MechPerfectICache makes every instruction fetch hit (Fig. 1).
	MechPerfectICache Mechanism = "perfect-icache"
	// MechUFTQAUR / MechUFTQATR / MechUFTQATRAUR are the dynamic FTQ
	// sizing controllers (Fig. 11/12).
	MechUFTQAUR    Mechanism = "uftq-aur"
	MechUFTQATR    Mechanism = "uftq-atr"
	MechUFTQATRAUR Mechanism = "uftq-atr-aur"
	// MechUDP is utility-driven prefetching with the 8KB Bloom
	// useful-set (Fig. 13-17); MechUDPInfinite is its unbounded upper
	// bound.
	MechUDP         Mechanism = "udp"
	MechUDPInfinite Mechanism = "udp-infinite"
	// MechEIP is the entangled-instruction-prefetcher comparator at an
	// 8KB metadata budget (Fig. 13).
	MechEIP Mechanism = "eip"
)

// MechDoc is one row of the mechanism table.
type MechDoc struct {
	// Name is the identifier used in configs, descriptors, flags and
	// result-cache keys.
	Name Mechanism
	// Doc is a one-line description (help text, -list-mechanisms).
	Doc string
}

// mechanismTable is the closed set of mechanisms in presentation order
// (Mechanisms(), -list-mechanisms, GET /v1/mechanisms, conformance
// tests). Adding a mechanism is a constant above, a row here and a case
// in buildMechanism.
var mechanismTable = []MechDoc{
	{MechBaseline, "FDIP with a fixed-depth FTQ (paper baseline, Table II depth 32)"},
	{MechNoPrefetch, "FDIP disabled: demand fetch only (Fig. 1 lower bound)"},
	{MechPerfectICache, "every instruction fetch hits the L1I (Fig. 1 upper bound)"},
	{MechUFTQAUR, "dynamic FTQ sizing by prefetch utility ratio (Section IV-A)"},
	{MechUFTQATR, "dynamic FTQ sizing by prefetch timeliness ratio (Section IV-A)"},
	{MechUFTQATRAUR, "dynamic FTQ sizing combining AUR and ATR searches (Section IV-A)"},
	{MechUDP, "utility-driven prefetch filtering, 8KB Bloom useful-set (Section IV-B)"},
	{MechUDPInfinite, "UDP with an unbounded useful-set (upper bound, Fig. 13)"},
	{MechEIP, "entangled instruction prefetcher comparator at 8KB metadata (Fig. 13)"},
}

// NormalizeMechanism maps the empty mechanism to MechBaseline. The two
// spellings always built identical machines, but before normalization
// they produced distinct ConfigKeys and the experiment result cache
// simulated the same cell twice.
func NormalizeMechanism(m Mechanism) Mechanism {
	if m == "" {
		return MechBaseline
	}
	return m
}

// ValidMechanism reports whether m names a mechanism in the table. The
// empty alias is not a name: callers that accept it normalize first.
func ValidMechanism(m Mechanism) bool {
	for _, d := range mechanismTable {
		if d.Name == m {
			return true
		}
	}
	return false
}

// Mechanisms lists every mechanism in table order.
func Mechanisms() []Mechanism {
	out := make([]Mechanism, len(mechanismTable))
	for i, d := range mechanismTable {
		out[i] = d.Name
	}
	return out
}

// MechanismDocs returns the mechanism table in order.
func MechanismDocs() []MechDoc {
	return append([]MechDoc(nil), mechanismTable...)
}

// MechanismNames returns the names as a comma-separated, sorted string
// (stable error messages and flag help).
func MechanismNames() string {
	names := make([]string, len(mechanismTable))
	for i, d := range mechanismTable {
		names[i] = string(d.Name)
	}
	sort.Strings(names)
	return strings.Join(names, ", ")
}

// uftqModes maps each UFTQ mechanism to its sizing controller.
var uftqModes = map[Mechanism]core.UFTQMode{
	MechUFTQAUR:    core.UFTQAUR,
	MechUFTQATR:    core.UFTQATR,
	MechUFTQATRAUR: core.UFTQATRAUR,
}

// buildMechanism constructs the configured mechanism's state into the
// machine's udp, uftq or eip field, applies its frontend switches, and
// returns the hooks to install. Baseline returns a nil Tuner, which the
// frontend replaces with its no-op tuner.
func (m *Machine) buildMechanism(fc *frontend.Config) (frontend.Tuner, frontend.ExternalPrefetcher, error) {
	cfg := &m.cfg
	switch cfg.Mechanism {
	case MechBaseline:
		return nil, nil, nil
	case MechNoPrefetch:
		fc.NoPrefetch = true
		return nil, nil, nil
	case MechPerfectICache:
		fc.PerfectICache = true
		return nil, nil, nil
	case MechUFTQAUR, MechUFTQATR, MechUFTQATRAUR:
		u := cfg.UFTQ
		u.Mode = uftqModes[cfg.Mechanism]
		m.uftq = core.NewUFTQ(u)
		return m.uftq, nil, nil
	case MechUDP, MechUDPInfinite:
		c := cfg.UDP
		c.Infinite = cfg.Mechanism == MechUDPInfinite
		m.udp = core.NewUDP(c)
		return m.udp, nil, nil
	case MechEIP:
		m.eip = eip.New(cfg.EIP)
		return nil, m.eip, nil
	}
	return nil, nil, fmt.Errorf("sim: unknown mechanism %q (known: %s)", cfg.Mechanism, MechanismNames())
}
