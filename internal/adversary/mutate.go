// Package adversary implements semantics-preserving evasion attacks against
// the detectors, and the pieces of the hardening story that need to share
// their machinery (training-set augmentation, attack search harnesses).
//
// Threat model (DESIGN.md §12): the attacker controls the deployed bytecode
// of their own contract and wants a phishing payload scored benign. They can
// perturb anything the featurizers read — append dead code, pad immediates,
// graft benign-looking fragments, wrap the logic in a proxy — but the
// executable behaviour must survive, or the contract stops draining wallets.
// Every mutator therefore validates that the *reachable instruction
// sequence* of the mutant matches the original (modulo inserted stack
// identities), using the same reachable-walk analysis the hardened
// featurization path canonicalizes with.
package adversary

import (
	"errors"
	"fmt"
	"hash/fnv"
	"math/rand"

	"github.com/phishinghook/phishinghook/internal/evm"
	"github.com/phishinghook/phishinghook/internal/synth"
)

// ErrNotApplicable reports that a mutator could not produce a validated
// mutant for this input (e.g. proxy-wrapping a proxy, or every retry
// accidentally made dead code reachable).
var ErrNotApplicable = errors.New("adversary: mutation not applicable")

// MaxMutantBytes caps generated mutants at the EIP-170 deployed-code limit:
// a mutant the chain would reject is not a usable evasion.
const MaxMutantBytes = 24576

// Mutator is one semantics-preserving bytecode transformation. Apply
// returns a fresh mutant of code (never aliasing it) drawn from rng, or
// ErrNotApplicable. Implementations validate their own output and are safe
// for concurrent use with distinct rngs.
type Mutator interface {
	Name() string
	Apply(code []byte, rng *rand.Rand) ([]byte, error)
}

// Mutators returns the full catalog in deterministic order. The attack
// search and the adversarial gate test iterate exactly this set.
func Mutators() []Mutator {
	return []Mutator{
		deadIsland{},
		benignGraft{},
		pushWiden{},
		stackNoise{},
		metaPad{},
		proxyWrap{},
	}
}

// AugmentMutators is the catalog used for training-set augmentation:
// everything except the proxy wrap, which replaces the code outright (a
// proxy's bytes carry no class signal, so labelling wrapped phishing code
// phishing would teach the model that all proxies are hostile).
func AugmentMutators() []Mutator {
	return []Mutator{deadIsland{}, benignGraft{}, pushWiden{}, stackNoise{}, metaPad{}}
}

// ---------------------------------------------------------------------------
// Reachable-trace validation.

// traceTok is one instruction of the reachable walk in comparison form:
// opcode with PUSH widths collapsed, and the immediate as either a literal
// value, the ordinal of a reachable JUMPDEST (layout-independent), or a
// hash of a wide constant.
type traceTok struct {
	op   byte
	kind uint8 // 0 plain op, 1 literal, 2 jumpdest ordinal, 3 wide-value hash
	val  uint64
}

const (
	tokPlain uint8 = iota
	tokLiteral
	tokOrdinal
	tokWide
)

// pushMarker stands in for every PUSH0..PUSH32 opcode in traces, so
// width-preserving re-encodings compare equal.
const pushMarker = byte(evm.PUSH1)

// reachTrace extracts the comparison trace of code's reachable walk.
func reachTrace(code []byte) []traceTok {
	dests := evm.ReachableJumpdests(code, nil)
	ordinalOf := func(v int) int {
		lo, hi := 0, len(dests)
		for lo < hi {
			mid := (lo + hi) / 2
			if dests[mid] < v {
				lo = mid + 1
			} else {
				hi = mid
			}
		}
		if lo < len(dests) && dests[lo] == v {
			return lo
		}
		return -1
	}
	var out []traceTok
	evm.ReachableWalk(code, func(_ int, op evm.Opcode, operand []byte) {
		if !op.IsPush() {
			out = append(out, traceTok{op: byte(op)})
			return
		}
		if v, ok := pushValue(operand); ok {
			if ord := ordinalOf(int(v)); ord >= 0 {
				out = append(out, traceTok{op: pushMarker, kind: tokOrdinal, val: uint64(ord)})
				return
			}
			out = append(out, traceTok{op: pushMarker, kind: tokLiteral, val: v})
			return
		}
		h := fnv.New64a()
		i := 0
		for i < len(operand) && operand[i] == 0 {
			i++
		}
		_, _ = h.Write(operand[i:])
		out = append(out, traceTok{op: pushMarker, kind: tokWide, val: h.Sum64()})
	})
	return out
}

// pushValue decodes a PUSH immediate into a uint64, reporting ok=false for
// values wider than 8 significant bytes.
func pushValue(operand []byte) (uint64, bool) {
	i := 0
	for i < len(operand) && operand[i] == 0 {
		i++
	}
	if len(operand)-i > 8 {
		return 0, false
	}
	var v uint64
	for ; i < len(operand); i++ {
		v = v<<8 | uint64(operand[i])
	}
	return v, true
}

// eraseIdentities removes stack-identity pairs from a trace: any PUSH
// immediately followed by POP, DUP1;POP, and SWAP1;SWAP1. Each pair is a
// runtime no-op wherever the stack is deep enough — and any such pair on a
// live path of working code is (the program would otherwise always fault
// there) — so erasing them from *both* traces compares programs modulo
// inserted noise. Runs to fixpoint for nested insertions.
func eraseIdentities(t []traceTok) []traceTok {
	for {
		out := t[:0:len(t)]
		changed := false
		for i := 0; i < len(t); i++ {
			if i+1 < len(t) {
				a, b := t[i], t[i+1]
				pair := (a.op == pushMarker && b.op == byte(evm.POP) && b.kind == tokPlain) ||
					(a.op == byte(evm.DUP1) && a.kind == tokPlain && b.op == byte(evm.POP) && b.kind == tokPlain) ||
					(a.op == byte(evm.SWAP1) && a.kind == tokPlain && b.op == byte(evm.SWAP1) && b.kind == tokPlain)
				if pair {
					i++
					changed = true
					continue
				}
			}
			out = append(out, t[i])
		}
		t = out
		if !changed {
			return t
		}
	}
}

// ValidatePreserving checks that mut's reachable instruction sequence
// matches orig's, comparing layout-independent traces with stack-identity
// pairs erased. This is the soundness gate every mutator runs before
// returning a mutant.
func ValidatePreserving(orig, mut []byte) error {
	a := eraseIdentities(reachTrace(orig))
	b := eraseIdentities(reachTrace(mut))
	if len(a) != len(b) {
		return fmt.Errorf("adversary: reachable trace length %d != %d", len(b), len(a))
	}
	for i := range a {
		if a[i] != b[i] {
			return fmt.Errorf("adversary: reachable trace diverges at instruction %d", i)
		}
	}
	return nil
}

// ---------------------------------------------------------------------------
// Program rewriter: parse → edit (widen/insert) → relayout with jump-target
// remapping.

// ins is one parsed instruction plus its pending edits.
type ins struct {
	op      evm.Opcode
	operand []byte // aliases the original code
	width   int    // emitted immediate width (>= len(operand) when widened)
	target  bool   // operand is a valid-JUMPDEST offset → remap on relayout
	value   int    // decoded target offset
	frozen  bool   // truncated trailing push: emit verbatim, never edit
	insert  []byte // raw bytes appended after this instruction
	newOff  int    // assigned by assemble
}

type program struct {
	ins  []ins
	orig []byte
}

// parse decodes code into an editable instruction list, marking pushes
// whose value lands on a reachable JUMPDEST as jump targets (the
// compiler-label assumption: pushed constants equal to JUMPDEST offsets are
// jump targets, which holds for solc-shaped code and is what relayout must
// preserve). Restricting to reachable JUMPDESTs keeps data constants that
// coincide with dead-code offsets untouched.
func parse(code []byte) *program {
	jd := make(map[int]bool)
	for _, d := range evm.ReachableJumpdests(code, nil) {
		jd[d] = true
	}
	p := &program{orig: code}
	evm.Walk(code, func(pc int, op evm.Opcode, operand []byte) {
		in := ins{op: op, operand: operand, width: len(operand)}
		if op.IsPush() {
			if op.PushSize() > len(operand) {
				in.frozen = true // truncated at EOF
			} else if v, ok := pushValue(operand); ok && v < uint64(len(code)) && jd[int(v)] {
				in.target = true
				in.value = int(v)
			}
		}
		p.ins = append(p.ins, in)
	})
	return p
}

// assemble lays the edited program back out, remapping target pushes to
// their JUMPDESTs' new offsets. Widths only grow (a target may need a wider
// immediate after offsets shift), so the relaxation loop terminates.
func (p *program) assemble() []byte {
	if len(p.ins) == 0 {
		return nil
	}
	oldOff := make(map[int]int, len(p.ins)) // old offset → ins index
	off := 0
	for i := range p.ins {
		oldOff[off] = i
		off += 1 + len(p.ins[i].operand)
	}
	for {
		// Pass 1: assign new offsets under current widths.
		off := 0
		for i := range p.ins {
			p.ins[i].newOff = off
			w := p.ins[i].width
			if p.ins[i].frozen {
				w = len(p.ins[i].operand)
			}
			off += 1 + w + len(p.ins[i].insert)
		}
		// Pass 2: grow any target whose remapped value no longer fits.
		stable := true
		for i := range p.ins {
			in := &p.ins[i]
			if !in.target || in.frozen {
				continue
			}
			nv := in.value
			if j, ok := oldOff[in.value]; ok {
				nv = p.ins[j].newOff
			}
			if need := byteWidth(nv); need > in.width {
				in.width = need
				stable = false
			}
		}
		if stable {
			break
		}
	}
	out := make([]byte, 0, p.ins[len(p.ins)-1].newOff+64)
	for i := range p.ins {
		in := &p.ins[i]
		if in.frozen {
			out = append(out, byte(in.op))
			out = append(out, in.operand...)
			out = append(out, in.insert...)
			continue
		}
		if !in.op.IsPush() {
			out = append(out, byte(in.op))
			out = append(out, in.insert...)
			continue
		}
		v := in.operand
		if in.target {
			nv := in.value
			if j, ok := oldOff[in.value]; ok {
				nv = p.ins[j].newOff
			}
			v = bigEndian(nv, in.width)
			out = append(out, byte(evm.PUSH1)+byte(in.width-1))
			out = append(out, v...)
			out = append(out, in.insert...)
			continue
		}
		if in.width == 0 {
			out = append(out, byte(evm.PUSH0))
		} else {
			out = append(out, byte(evm.PUSH1)+byte(in.width-1))
			for pad := in.width - len(v); pad > 0; pad-- {
				out = append(out, 0)
			}
			out = append(out, v...)
		}
		out = append(out, in.insert...)
	}
	return out
}

func byteWidth(v int) int {
	n := 1
	for v > 0xFF {
		v >>= 8
		n++
	}
	return n
}

func bigEndian(v, width int) []byte {
	out := make([]byte, width)
	for i := width - 1; i >= 0; i-- {
		out[i] = byte(v)
		v >>= 8
	}
	return out
}

// mutateRetries bounds how often a mutator redraws randomness after a
// validation failure (e.g. an appended island's JUMPDEST colliding with a
// pushed constant and becoming reachable) before giving up.
const mutateRetries = 8

// tryValidated runs gen until its output validates against orig.
func tryValidated(orig []byte, gen func() ([]byte, error)) ([]byte, error) {
	for try := 0; try < mutateRetries; try++ {
		mut, err := gen()
		if err != nil {
			return nil, err
		}
		if len(mut) > MaxMutantBytes {
			return nil, ErrNotApplicable
		}
		if ValidatePreserving(orig, mut) == nil {
			return mut, nil
		}
	}
	return nil, ErrNotApplicable
}

// ---------------------------------------------------------------------------
// Mutator catalog.

// deadIsland appends an unreachable JUMPDEST-led island of plausible
// instructions after the metadata trailer. The linear featurizers count it;
// no jump can reach it (validated).
type deadIsland struct{}

func (deadIsland) Name() string { return "dead-island" }

// islandOps is the opcode pool dead islands draw from — common arithmetic,
// stack and memory traffic, heavy in the opcodes benign code favours.
var islandOps = []evm.Opcode{
	evm.ADD, evm.MUL, evm.SUB, evm.DIV, evm.LT, evm.GT, evm.EQ, evm.ISZERO,
	evm.AND, evm.OR, evm.SHR, evm.SHL, evm.POP, evm.MLOAD, evm.MSTORE,
	evm.DUP1, evm.DUP2, evm.SWAP1, evm.SWAP2, evm.CALLER, evm.GAS,
	evm.RETURNDATASIZE, evm.CALLDATALOAD, evm.SLOAD,
}

func (deadIsland) Apply(code []byte, rng *rand.Rand) ([]byte, error) {
	return tryValidated(code, func() ([]byte, error) {
		out := append(make([]byte, 0, len(code)+80), code...)
		// A fresh STOP boundary keeps a truncated trailing push in the
		// original from swallowing the island head (retries shift it).
		if rng.Intn(2) == 0 {
			out = append(out, byte(evm.STOP))
		}
		out = append(out, byte(evm.JUMPDEST))
		for i, n := 0, 8+rng.Intn(56); i < n; i++ {
			if rng.Intn(4) == 0 {
				out = append(out, byte(evm.PUSH1), byte(rng.Intn(256)))
				continue
			}
			out = append(out, byte(islandOps[rng.Intn(len(islandOps))]))
		}
		return out, nil
	})
}

// benignGraft appends one to three benign synth fragments as dead code —
// the strongest distribution-shift attack against raw-count featurizers,
// because the grafted bytes are drawn from the benign class itself.
type benignGraft struct{}

func (benignGraft) Name() string { return "benign-graft" }

func (benignGraft) Apply(code []byte, rng *rand.Rand) ([]byte, error) {
	return tryValidated(code, func() ([]byte, error) {
		out := append(make([]byte, 0, len(code)+512), code...)
		if rng.Intn(2) == 0 {
			out = append(out, byte(evm.STOP))
		}
		for i, n := 0, 1+rng.Intn(3); i < n; i++ {
			out = append(out, synth.BenignFragment(rng)...)
		}
		return out, nil
	})
}

// pushWiden re-encodes a handful of PUSH immediates with leading zero bytes
// (PUSH1 x → PUSH2 0x00 x), shifting every later offset; jump targets are
// remapped during relayout.
type pushWiden struct{}

func (pushWiden) Name() string { return "push-widen" }

func (pushWiden) Apply(code []byte, rng *rand.Rand) ([]byte, error) {
	return tryValidated(code, func() ([]byte, error) {
		p := parse(code)
		var idx []int
		for i := range p.ins {
			if p.ins[i].op.IsPush() && !p.ins[i].frozen && p.ins[i].width < 30 {
				idx = append(idx, i)
			}
		}
		if len(idx) == 0 {
			return nil, ErrNotApplicable
		}
		for k, n := 0, 1+rng.Intn(6); k < n; k++ {
			p.ins[idx[rng.Intn(len(idx))]].width += 1 + rng.Intn(2)
		}
		return p.assemble(), nil
	})
}

// stackNoise injects stack-identity sequences (PUSH x; POP — plus DUP1;POP
// after a value-producing op and SWAP1;SWAP1 after two pushes) at random
// points of the instruction stream, shifting offsets like real recompiled
// code would.
type stackNoise struct{}

func (stackNoise) Name() string { return "stack-noise" }

func (stackNoise) Apply(code []byte, rng *rand.Rand) ([]byte, error) {
	return tryValidated(code, func() ([]byte, error) {
		p := parse(code)
		if len(p.ins) < 2 {
			return nil, ErrNotApplicable
		}
		for k, n := 0, 2+rng.Intn(6); k < n; k++ {
			i := rng.Intn(len(p.ins) - 1)
			in := &p.ins[i]
			if in.frozen {
				continue
			}
			switch rng.Intn(3) {
			case 0:
				in.insert = append(in.insert, byte(evm.PUSH0), byte(evm.POP))
			case 1:
				in.insert = append(in.insert, byte(evm.PUSH1), byte(rng.Intn(256)), byte(evm.POP))
			default:
				if in.op.IsPush() || in.op.IsDup() {
					in.insert = append(in.insert, byte(evm.DUP1), byte(evm.POP))
				} else {
					in.insert = append(in.insert, byte(evm.PUSH0), byte(evm.POP))
				}
			}
		}
		return p.assemble(), nil
	})
}

// metaPad extends the pseudo-CBOR metadata trailer with random bytes — the
// cheapest perturbation, since solc tails vary freely in the wild.
type metaPad struct{}

func (metaPad) Name() string { return "meta-pad" }

func (metaPad) Apply(code []byte, rng *rand.Rand) ([]byte, error) {
	return tryValidated(code, func() ([]byte, error) {
		pad := make([]byte, 8+rng.Intn(56))
		rng.Read(pad)
		out := append(make([]byte, 0, len(code)+len(pad)), code...)
		return append(out, pad...), nil
	})
}

// proxyWrap replaces the contract with an EIP-1167 minimal proxy to a fresh
// implementation address — account-level semantics preservation (the chain
// behaviour survives behind one DELEGATECALL hop) rather than bytecode
// equality, so the reachable-trace check does not apply; instead the output
// must be exactly the proxy pattern. Every wrap draws a fresh address, so
// no two mutants dedup-collide.
type proxyWrap struct{}

func (proxyWrap) Name() string { return "proxy-wrap" }

func (proxyWrap) Apply(code []byte, rng *rand.Rand) ([]byte, error) {
	if _, ok := evm.IsMinimalProxy(code); ok {
		return nil, ErrNotApplicable // already a proxy; wrapping again is a no-op
	}
	var impl [20]byte
	rng.Read(impl[:])
	out := synth.MinimalProxy(impl)
	if _, ok := evm.IsMinimalProxy(out); !ok {
		return nil, fmt.Errorf("adversary: proxy wrap produced a non-proxy")
	}
	return out, nil
}
