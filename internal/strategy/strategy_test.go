package strategy

import (
	"errors"
	"math"
	"testing"

	"slimsim/internal/intervals"
	"slimsim/internal/rng"
)

// gpsCtx models the paper's running example: repair enabled on [200, 300]
// with invariant bound 300 (Fig. 2's transient fault).
func gpsCtx(seed uint64) *Context {
	return &Context{
		MaxDelay:    300,
		MaxAttained: true,
		Horizon:     1e6,
		Windows: []intervals.Set{
			intervals.FromInterval(intervals.Closed(200, 300)),
		},
		Rng: rng.New(seed),
	}
}

func TestASAPPicksEarliest(t *testing.T) {
	c, err := ASAP{}.Choose(gpsCtx(1))
	if err != nil {
		t.Fatal(err)
	}
	if c.Delay != 200 {
		t.Errorf("ASAP delay = %v, want 200 (paper: schedules repair at 200 msec)", c.Delay)
	}
	if len(c.Enabled) != 1 || c.Enabled[0] != 0 {
		t.Errorf("ASAP enabled = %v, want [0]", c.Enabled)
	}
}

func TestMaxTimePicksLatest(t *testing.T) {
	c, err := MaxTime{}.Choose(gpsCtx(1))
	if err != nil {
		t.Fatal(err)
	}
	if c.Delay != 300 {
		t.Errorf("MaxTime delay = %v, want 300 (paper: schedules repair at 300 msec)", c.Delay)
	}
	if len(c.Enabled) != 1 {
		t.Errorf("MaxTime enabled = %v, want [0]", c.Enabled)
	}
}

func TestProgressiveSamplesGuardInterval(t *testing.T) {
	// Paper: Progressive uniformly selects from [200, 300].
	for seed := uint64(0); seed < 50; seed++ {
		c, err := Progressive{}.Choose(gpsCtx(seed))
		if err != nil {
			t.Fatal(err)
		}
		if c.Delay < 200 || c.Delay > 300 {
			t.Fatalf("Progressive delay %v outside [200,300]", c.Delay)
		}
		if len(c.Enabled) != 1 {
			t.Fatalf("Progressive enabled = %v, want [0]", c.Enabled)
		}
	}
}

func TestLocalSamplesInvariantRange(t *testing.T) {
	// Paper: Local ignores the guard and selects from [0, 300]; when the
	// sampled delay is below 200 nothing is enabled.
	sawDisabled, sawEnabled := false, false
	for seed := uint64(0); seed < 100; seed++ {
		c, err := Local{}.Choose(gpsCtx(seed))
		if err != nil {
			t.Fatal(err)
		}
		if c.Delay < 0 || c.Delay > 300 {
			t.Fatalf("Local delay %v outside [0,300]", c.Delay)
		}
		if len(c.Enabled) == 0 {
			sawDisabled = true
			if c.Delay >= 200 {
				t.Fatalf("delay %v >= 200 should enable the move", c.Delay)
			}
		} else {
			sawEnabled = true
			if c.Delay < 200 {
				t.Fatalf("delay %v < 200 should not enable the move", c.Delay)
			}
		}
	}
	if !sawDisabled || !sawEnabled {
		t.Error("Local should produce both enabled and disabled samples over [0,300]")
	}
}

func TestASAPOpenWindowNudges(t *testing.T) {
	ctx := &Context{
		MaxDelay:    10,
		MaxAttained: true,
		Horizon:     100,
		Windows:     []intervals.Set{intervals.FromInterval(intervals.Open(2, 5))},
		Rng:         rng.New(3),
	}
	c, err := ASAP{}.Choose(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if c.Delay <= 2 || c.Delay > 2.001 {
		t.Errorf("ASAP on open window = %v, want just above 2", c.Delay)
	}
	if len(c.Enabled) != 1 {
		t.Errorf("enabled = %v, want 1 move", c.Enabled)
	}
}

func TestMaxTimeOvershootsInnerWindow(t *testing.T) {
	// Invariant allows up to 100, but the only move is enabled on [2,5]:
	// the paper's MaxTime still waits the full 100, stranding the model
	// — that is how it exposes actionlocks.
	ctx := &Context{
		MaxDelay:    100,
		MaxAttained: true,
		Horizon:     1000,
		Windows:     []intervals.Set{intervals.FromInterval(intervals.Closed(2, 5))},
		Rng:         rng.New(3),
	}
	c, err := MaxTime{}.Choose(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if c.Delay != 100 || len(c.Enabled) != 0 || c.Timelocked {
		t.Errorf("MaxTime = %+v, want delay 100 with nothing enabled", c)
	}
}

func TestMultipleWindowsEquiprobabilityInputs(t *testing.T) {
	// Two moves with overlapping windows: at the ASAP instant both are
	// enabled, so the engine can choose uniformly (paper's
	// equiprobability).
	ctx := &Context{
		MaxDelay:    100,
		MaxAttained: true,
		Horizon:     1000,
		Windows: []intervals.Set{
			intervals.FromInterval(intervals.Closed(3, 10)),
			intervals.FromInterval(intervals.Closed(3, 7)),
		},
		Rng: rng.New(3),
	}
	c, err := ASAP{}.Choose(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if c.Delay != 3 || len(c.Enabled) != 2 {
		t.Errorf("ASAP = %+v, want delay 3 with both moves enabled", c)
	}
}

func TestInputStrategy(t *testing.T) {
	ctx := gpsCtx(1)
	s := Input{Ask: func(c *Context) (float64, int, error) { return 250, 0, nil }}
	c, err := s.Choose(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if c.Delay != 250 || len(c.Enabled) != 1 {
		t.Errorf("Input = %+v, want delay 250 with move 0", c)
	}

	// Uniform pick variant.
	s = Input{Ask: func(c *Context) (float64, int, error) { return 220, -1, nil }}
	c, err = s.Choose(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(c.Enabled) != 1 {
		t.Errorf("Input(-1) enabled = %v", c.Enabled)
	}

	// Error cases.
	bad := []Input{
		{},
		{Ask: func(c *Context) (float64, int, error) { return -1, -1, nil }},
		{Ask: func(c *Context) (float64, int, error) { return 100, 0, nil }}, // move not enabled at 100
		{Ask: func(c *Context) (float64, int, error) { return 250, 7, nil }}, // out of range
		{Ask: func(c *Context) (float64, int, error) { return 0, -1, errors.New("nope") }},
		{Ask: func(c *Context) (float64, int, error) { return 301, -1, nil }}, // beyond the invariant bound 300
		{Ask: func(c *Context) (float64, int, error) { return math.NaN(), -1, nil }},
		{Ask: func(c *Context) (float64, int, error) { return math.Inf(1), -1, nil }},
	}
	for i, s := range bad {
		if _, err := s.Choose(ctx); err == nil {
			t.Errorf("bad input %d should fail", i)
		}
	}
	// The invariant bound itself is allowed only when it is attained.
	atBound := Input{Ask: func(c *Context) (float64, int, error) { return 300, 0, nil }}
	if _, err := atBound.Choose(ctx); err != nil {
		t.Errorf("delay 300 under the attained bound 300: %v", err)
	}
	ctx.MaxAttained = false
	if _, err := atBound.Choose(ctx); err == nil {
		t.Error("delay 300 under the unattained bound 300 should fail")
	}
}

// TestInputRefusesMoveOutsideWindow: a move the callback picks is written
// into the context's reusable buffer, and a move whose window does not
// hold the chosen delay is refused, also after an accepted pick has left
// its index in that buffer.
func TestInputRefusesMoveOutsideWindow(t *testing.T) {
	ctx := gpsCtx(1)
	ctx.Windows = append(ctx.Windows, intervals.FromInterval(intervals.Closed(0, 100)))
	pick := func(d float64, move int) Input {
		return Input{Ask: func(*Context) (float64, int, error) { return d, move, nil }}
	}
	c, err := pick(250, 0).Choose(ctx)
	if err != nil || len(c.Enabled) != 1 || c.Enabled[0] != 0 || &c.Enabled[0] != &ctx.EnabledBuf[0] {
		t.Fatalf("move 0 at 250 = (%+v, %v), want [0] in the context's buffer", c, err)
	}
	for _, bad := range []struct {
		d    float64
		move int
	}{{250, 1}, {150, 0}, {150, 1}, {100.5, 1}} {
		if c, err := pick(bad.d, bad.move).Choose(ctx); err == nil {
			t.Errorf("move %d at %g, outside its window, was accepted: %+v", bad.move, bad.d, c)
		}
	}
	if c, err := pick(100, 1).Choose(ctx); err != nil || len(c.Enabled) != 1 || c.Enabled[0] != 1 {
		t.Errorf("move 1 at 100 = (%+v, %v), want [1]", c, err)
	}
}

// TestChooseAllocs: with the engine's reuse (one context whose arena is
// reset before each decision and whose EnabledBuf is warm), no strategy
// allocates to decide, Input's own pick included.
func TestChooseAllocs(t *testing.T) {
	var arena intervals.Arena
	ctx := &Context{
		MaxDelay:    100,
		MaxAttained: true,
		Horizon:     1000,
		Windows: []intervals.Set{
			intervals.NewSet(intervals.Closed(3, 10), intervals.Open(20, 30)),
			intervals.NewSet(intervals.Closed(5, 7), intervals.AtLeast(25)),
			intervals.FromInterval(intervals.Closed(8, 40)),
		},
		Arena: &arena,
		Rng:   rng.New(3),
	}
	strategies := []Strategy{ASAP{}, Progressive{}, Local{}, MaxTime{},
		Input{Ask: func(*Context) (float64, int, error) { return 9, 2, nil }}}
	for _, s := range strategies {
		choose := func() {
			arena.Reset()
			if _, err := s.Choose(ctx); err != nil {
				t.Fatal(err)
			}
		}
		choose()
		if n := testing.AllocsPerRun(100, choose); n != 0 {
			t.Errorf("%s allocates %.1f objects per decision, want 0", s.Name(), n)
		}
	}
}

func TestByName(t *testing.T) {
	for _, name := range []string{"asap", "progressive", "local", "maxtime"} {
		s, err := ByName(name)
		if err != nil {
			t.Errorf("ByName(%q): %v", name, err)
			continue
		}
		if s.Name() != name {
			t.Errorf("ByName(%q).Name() = %q", name, s.Name())
		}
	}
	if _, err := ByName("bogus"); err == nil {
		t.Error("ByName should reject unknown names")
	}
}
