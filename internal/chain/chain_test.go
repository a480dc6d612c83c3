package chain

import (
	"bytes"
	"testing"
	"testing/quick"

	"github.com/phishinghook/phishinghook/internal/synth"
)

func testBuildConfig(seed int64) BuildConfig {
	return BuildConfig{
		Generator:      synth.NewGenerator(synth.DefaultConfig(seed)),
		Timeline:       synth.ScaledTimeline(260, 130),
		BenignPerMonth: UniformBenign(130),
		ProxyFraction:  0.1,
	}
}

func TestAddressRoundTrip(t *testing.T) {
	a := DeriveAddress(42, 7)
	back, err := ParseAddress(a.String())
	if err != nil {
		t.Fatalf("ParseAddress(%s): %v", a, err)
	}
	if back != a {
		t.Errorf("round trip %s != %s", back, a)
	}
}

func TestParseAddressErrors(t *testing.T) {
	for _, s := range []string{"", "0x12", "0xzz", "0x" + string(make([]byte, 80))} {
		if _, err := ParseAddress(s); err == nil {
			t.Errorf("ParseAddress(%q) succeeded, want error", s)
		}
	}
}

func TestDeriveAddressInjectiveProperty(t *testing.T) {
	f := func(a, b uint32) bool {
		if a == b {
			return true
		}
		return DeriveAddress(1, uint64(a)) != DeriveAddress(1, uint64(b))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestMonthBlockMapping(t *testing.T) {
	for m := 0; m < synth.NumMonths; m++ {
		start := MonthStartBlock(m)
		if got := MonthOfBlock(start); got != m {
			t.Errorf("MonthOfBlock(MonthStartBlock(%d)) = %d", m, got)
		}
		if got := MonthOfBlock(start + BlocksPerMonth - 1); got != m {
			t.Errorf("end of month %d maps to %d", m, got)
		}
	}
	if MonthOfBlock(0) != 0 {
		t.Error("pre-window block should clamp to month 0")
	}
	if MonthOfBlock(^uint64(0)) != synth.NumMonths-1 {
		t.Error("post-window block should clamp to final month")
	}
	if StudyStartBlock <= ShanghaiBlock {
		t.Error("study window must start after the Shanghai fork")
	}
}

func TestDeployAndGetCode(t *testing.T) {
	c := New()
	ct := &Contract{Addr: DeriveAddress(1, 1), Code: []byte{0x60, 0x80}, Block: 5}
	if err := c.Deploy(ct); err != nil {
		t.Fatalf("Deploy: %v", err)
	}
	if got := c.GetCode(ct.Addr); !bytes.Equal(got, ct.Code) {
		t.Errorf("GetCode = %x, want %x", got, ct.Code)
	}
	if got := c.GetCode(DeriveAddress(1, 2)); got != nil {
		t.Errorf("GetCode of absent address = %x, want nil", got)
	}
	if err := c.Deploy(ct); err == nil {
		t.Error("re-deploy to same address succeeded, want collision error")
	}
	if err := c.Deploy(&Contract{Addr: DeriveAddress(1, 3)}); err == nil {
		t.Error("deploy of empty code succeeded, want error")
	}
	c.Freeze()
	if err := c.Deploy(&Contract{Addr: DeriveAddress(1, 4), Code: []byte{1}}); err == nil {
		t.Error("deploy after freeze succeeded, want error")
	}
}

func TestBuildPopulation(t *testing.T) {
	cfg := testBuildConfig(42)
	c, err := Build(cfg)
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	wantTotal := cfg.Timeline.TotalObtained() + 130
	if c.Len() != wantTotal {
		t.Fatalf("chain has %d contracts, want %d", c.Len(), wantTotal)
	}
	var phish, benign int
	for _, ct := range c.All() {
		if ct.Phishing {
			phish++
		} else {
			benign++
		}
		if MonthOfBlock(ct.Block) != ct.Month {
			t.Fatalf("contract %s: block %d not in month %d", ct.Addr, ct.Block, ct.Month)
		}
	}
	if phish != cfg.Timeline.TotalObtained() || benign != 130 {
		t.Errorf("class counts = (%d phish, %d benign), want (%d, 130)",
			phish, benign, cfg.Timeline.TotalObtained())
	}
}

func TestBuildDeterminism(t *testing.T) {
	c1, err := Build(testBuildConfig(7))
	if err != nil {
		t.Fatal(err)
	}
	c2, err := Build(testBuildConfig(7))
	if err != nil {
		t.Fatal(err)
	}
	a1, a2 := c1.All(), c2.All()
	if len(a1) != len(a2) {
		t.Fatalf("lengths differ: %d vs %d", len(a1), len(a2))
	}
	for i := range a1 {
		if a1[i].Addr != a2[i].Addr || !bytes.Equal(a1[i].Code, a2[i].Code) {
			t.Fatalf("contract %d differs between identical builds", i)
		}
	}
}

func TestBuildProducesDuplicates(t *testing.T) {
	// The obtained > unique gap must materialize as bit-identical bytecodes
	// (the minimal-proxy clones the paper deduplicates).
	c, err := Build(testBuildConfig(3))
	if err != nil {
		t.Fatal(err)
	}
	seen := make(map[string]int)
	for _, ct := range c.All() {
		if ct.Phishing {
			seen[string(ct.Code)]++
		}
	}
	dupes := 0
	for _, n := range seen {
		if n > 1 {
			dupes += n - 1
		}
	}
	if dupes == 0 {
		t.Error("no duplicate phishing bytecodes generated")
	}
}

func TestContractsInRange(t *testing.T) {
	c, err := Build(testBuildConfig(9))
	if err != nil {
		t.Fatal(err)
	}
	m0 := c.ContractsInRange(MonthStartBlock(0), MonthStartBlock(1)-1)
	for _, ct := range m0 {
		if ct.Month != 0 {
			t.Errorf("contract in month-0 range has Month=%d", ct.Month)
		}
	}
	all := c.ContractsInRange(0, ^uint64(0))
	if len(all) != c.Len() {
		t.Errorf("full range returned %d of %d contracts", len(all), c.Len())
	}
	for i := 1; i < len(all); i++ {
		if all[i].Block < all[i-1].Block {
			t.Fatal("ContractsInRange not sorted by block")
		}
	}
}

func TestMatchedBenignShape(t *testing.T) {
	tl := synth.PaperTimeline()
	bm := MatchedBenign(3500, tl)
	total := 0
	for _, n := range bm {
		total += n
	}
	if total != 3500 {
		t.Fatalf("MatchedBenign total = %d, want 3500", total)
	}
	// Peak month of benign must match the phishing peak (2024-01).
	for m, n := range bm {
		if m != 3 && n > bm[3] {
			t.Errorf("benign month %d (%d) exceeds peak month 3 (%d)", m, n, bm[3])
		}
	}
}

func TestUniformBenignTotal(t *testing.T) {
	f := func(n uint16) bool {
		total := int(n)
		got := UniformBenign(total)
		sum := 0
		for _, v := range got {
			sum += v
		}
		return sum == total
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestBuildValidation(t *testing.T) {
	if _, err := Build(BuildConfig{}); err == nil {
		t.Error("Build without generator succeeded")
	}
	cfg := testBuildConfig(1)
	cfg.ProxyFraction = 1.5
	if _, err := Build(cfg); err == nil {
		t.Error("Build with ProxyFraction>1 succeeded")
	}
}

func TestLiveModeVisibility(t *testing.T) {
	c, err := Build(testBuildConfig(11))
	if err != nil {
		t.Fatal(err)
	}
	all := c.All()
	tail := c.TailBlock()
	start := MonthStartBlock(6) - 1
	if err := c.GoLive(start); err != nil {
		t.Fatalf("GoLive: %v", err)
	}
	if !c.Live() {
		t.Fatal("chain not live after GoLive")
	}
	if c.HeadBlock() != start {
		t.Fatalf("HeadBlock = %d, want visible head %d", c.HeadBlock(), start)
	}
	if c.TailBlock() != tail {
		t.Fatalf("TailBlock changed under live mode: %d vs %d", c.TailBlock(), tail)
	}

	// Deployments above the visible head must be hidden from every read path.
	var future, past *Contract
	for _, ct := range all {
		if ct.Block > start && future == nil {
			future = ct
		}
		if ct.Block <= start {
			past = ct
		}
	}
	if future == nil || past == nil {
		t.Fatal("test chain needs contracts on both sides of the live head")
	}
	if c.GetCode(future.Addr) != nil {
		t.Error("GetCode leaked a future deployment")
	}
	if _, ok := c.Lookup(future.Addr); ok {
		t.Error("Lookup leaked a future deployment")
	}
	if !bytes.Equal(c.GetCode(past.Addr), past.Code) {
		t.Error("GetCode lost a released deployment")
	}
	for _, ct := range c.ContractsInRange(0, ^uint64(0)) {
		if ct.Block > start {
			t.Fatalf("registry range leaked block %d beyond head %d", ct.Block, start)
		}
	}

	// Advancing releases the hidden contracts and clamps at the tail.
	if head := c.AdvanceHead(^uint64(0)); head != tail {
		t.Fatalf("AdvanceHead clamp = %d, want tail %d", head, tail)
	}
	if got := c.ContractsInRange(0, ^uint64(0)); len(got) != len(all) {
		t.Errorf("after full advance, range returned %d of %d contracts", len(got), len(all))
	}
	if !bytes.Equal(c.GetCode(future.Addr), future.Code) {
		t.Error("future deployment still hidden after full advance")
	}
}

// TestAdvancedBroadcast: the channel closes on the next advance that moves
// the visible head, not on one clamped at the tail, and each taken channel
// closes exactly once.
func TestAdvancedBroadcast(t *testing.T) {
	c, err := Build(testBuildConfig(11))
	if err != nil {
		t.Fatal(err)
	}
	tail := c.TailBlock()
	if err := c.GoLive(tail - 2); err != nil {
		t.Fatal(err)
	}
	closed := func(ch <-chan struct{}) bool {
		select {
		case <-ch:
			return true
		default:
			return false
		}
	}
	a, b := c.Advanced(), c.Advanced()
	if a != b || closed(a) {
		t.Fatal("two waiters before an advance must share one open channel")
	}
	c.AdvanceHead(1)
	if !closed(a) {
		t.Fatal("advance did not close the taken channel")
	}
	next := c.Advanced()
	if closed(next) {
		t.Fatal("a channel taken after the advance is already closed")
	}
	c.AdvanceHead(5) // clamps at the tail: still a move
	if !closed(next) {
		t.Fatal("clamped advance that moved the head did not close the channel")
	}
	last := c.Advanced()
	c.AdvanceHead(1) // already at the tail: no move
	if closed(last) {
		t.Fatal("an advance that did not move the head closed the channel")
	}
}

func TestGoLiveRequiresFreeze(t *testing.T) {
	c := New()
	if err := c.GoLive(0); err == nil {
		t.Error("GoLive before Freeze succeeded, want error")
	}
}

func TestClockDeterministicSchedule(t *testing.T) {
	heads := func() []uint64 {
		c, err := Build(testBuildConfig(13))
		if err != nil {
			t.Fatal(err)
		}
		start := MonthStartBlock(11)
		if err := c.GoLive(start); err != nil {
			t.Fatal(err)
		}
		clk, err := NewClock(c, ClockConfig{Seed: 99, BlocksPerTick: 5000, JitterBlocks: 2500})
		if err != nil {
			t.Fatal(err)
		}
		var out []uint64
		for {
			head, done := clk.Tick()
			out = append(out, head)
			if done {
				return out
			}
		}
	}
	h1, h2 := heads(), heads()
	if len(h1) != len(h2) {
		t.Fatalf("schedules differ in length: %d vs %d", len(h1), len(h2))
	}
	for i := range h1 {
		if h1[i] != h2[i] {
			t.Fatalf("tick %d differs: %d vs %d", i, h1[i], h2[i])
		}
	}
	if last := h1[len(h1)-1]; last != MonthStartBlock(synth.NumMonths-1)+BlocksPerMonth-1 {
		// The clock must stop exactly at the chain tail, never beyond.
		c, _ := Build(testBuildConfig(13))
		if last != c.TailBlock() {
			t.Errorf("clock ended at %d, want chain tail %d", last, c.TailBlock())
		}
	}
}

func TestClockEndBlockStopsEarly(t *testing.T) {
	c, err := Build(testBuildConfig(17))
	if err != nil {
		t.Fatal(err)
	}
	start := MonthStartBlock(3)
	end := start + 10
	if err := c.GoLive(start); err != nil {
		t.Fatal(err)
	}
	clk, err := NewClock(c, ClockConfig{Seed: 1, BlocksPerTick: 3, EndBlock: end})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; ; i++ {
		head, done := clk.Tick()
		if head > end {
			t.Fatalf("clock exposed block %d past end %d", head, end)
		}
		if done {
			if head != end {
				t.Fatalf("clock stopped at %d, want %d", head, end)
			}
			break
		}
		if i > 100 {
			t.Fatal("clock never reached its end block")
		}
	}
	if _, done := clk.Tick(); !done {
		t.Error("Tick after end should stay done")
	}
	if err := c.GoLive(0); err != nil {
		t.Fatal(err)
	}
	if _, err := NewClock(New(), ClockConfig{}); err == nil {
		t.Error("NewClock on a non-live chain succeeded, want error")
	}
}
