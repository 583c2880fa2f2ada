package harness

import (
	"fmt"
	"time"

	"ix/internal/apps/memcached"
	"ix/internal/cp"
	"ix/internal/mutilate"
)

// ElasticSetup configures the elastic thread scaling experiment: one IX
// memcached server whose core allocation is managed by an IXCP
// controller, under an offered load that ramps up and back down (the
// energy-proportionality / consolidation scenario of §3: "the control
// plane can add or remove cores dynamically, in order to adapt to load
// changes"). Each client thread keeps 8 connections open and drives the
// ETC mix; the controller runs cp.DefaultPolicy.
type ElasticSetup struct {
	// MaxCores is the hardware queue-pair budget; the static baseline
	// pins this many threads for the whole run.
	MaxCores int
	// PeakRPS is the aggregate offered load at the top of the ramp.
	PeakRPS float64
	// Steps is the number of load levels on each slope of the triangle
	// ramp; the run has 2*Steps+1 measurement windows.
	Steps int
	// StepWindow is the duration of each load level.
	StepWindow time.Duration
	Warmup     time.Duration

	ClientHosts int
	ClientCores int

	// Static pins MaxCores threads with no controller (the comparison
	// baseline for the elastic run).
	Static bool
}

// ElasticPoint is one measurement window of the ramp.
type ElasticPoint struct {
	// T is virtual time at the window's end, measured from ramp start.
	T          time.Duration
	OfferedRPS float64
	// AchievedRPS counts completed responses in the window.
	AchievedRPS float64
	// Cores is the elastic thread count at the window's end.
	Cores int
	// P99 is the 99th-percentile response latency in the window.
	P99 time.Duration
}

// ElasticResult is the outcome of one ramp run.
type ElasticResult struct {
	Points          []ElasticPoint
	PeakAchievedRPS float64
	// CoreSeconds integrates allocated cores over the measured ramp (the
	// consolidation metric: lower is cheaper at equal throughput).
	CoreSeconds float64
	// Migration mechanics observed on the server dataplane.
	Migrations    uint64
	FlowsMigrated uint64
	// Drops are NIC-edge RX drops over the whole run.
	Drops uint64
	// Log is the controller's action log (empty for a static run).
	Log []cp.Event
}

// RunElastic executes one load ramp against an IX memcached server and
// samples cores-used, throughput and tail latency per window.
func RunElastic(s ElasticSetup) ElasticResult {
	if s.Warmup <= 0 {
		s.Warmup = 2 * time.Millisecond
	}

	const seed, port = 23, 11211
	cl := NewCluster(seed)
	store := memcached.NewStore(256 << 20)
	mutilate.Preload(store, mutilate.ETC)
	startCores := 1
	if s.Static {
		startCores = s.MaxCores
	}
	cl.AddHost("memcached", HostSpec{
		Arch:       ArchIX,
		Cores:      startCores,
		MaxThreads: s.MaxCores,
		Factory:    memcached.ServerFactory(store, port),
	})
	srv := cl.IXServer(0)

	// The triangle ramp: level w of 2*Steps+1 windows, anchored at the
	// end of warmup (the engine starts at zero).
	windows := 2*s.Steps + 1
	level := func(w int) float64 {
		if w < 0 {
			w = 0
		}
		if w >= windows {
			w = windows - 1
		}
		up := w + 1
		if w > s.Steps {
			up = windows - w
		}
		return s.PeakRPS * float64(up) / float64(s.Steps+1)
	}
	rampStart := int64(s.Warmup)
	threads := s.ClientHosts * s.ClientCores
	schedule := func(now int64) float64 {
		w := int((now - rampStart) / int64(s.StepWindow))
		return level(w) / float64(threads)
	}

	m := mutilate.NewMetrics()
	for i := 0; i < s.ClientHosts; i++ {
		cl.AddHost("mutilate", HostSpec{
			Arch:  ArchLinux,
			Cores: s.ClientCores,
			Factory: mutilate.LoadFactory(mutilate.LoadConfig{
				ServerIP: srv.IP(),
				Port:     port,
				Workload: mutilate.ETC,
				Conns:    8,
				Schedule: schedule,
				Pipeline: 4,
				Metrics:  m,
				Seed:     seed + uint64(i)*977,
			}),
		})
	}
	cl.Start()

	var ctl *cp.Controller
	if !s.Static {
		ctl = cp.New(cl.Eng, srv, cp.DefaultPolicy())
		ctl.Start()
	}

	cl.Run(s.Warmup)
	srv.ResetStats()

	res := ElasticResult{}
	for w := 0; w < windows; w++ {
		m.ResetWindow()
		cl.Run(s.StepWindow)
		p := ElasticPoint{
			T:           time.Duration(w+1) * s.StepWindow,
			OfferedRPS:  level(w),
			AchievedRPS: float64(m.Responses.Since()) / s.StepWindow.Seconds(),
			Cores:       srv.Threads(),
			P99:         m.LoadLatency.Quantile(0.99),
		}
		res.Points = append(res.Points, p)
		if p.AchievedRPS > res.PeakAchievedRPS {
			res.PeakAchievedRPS = p.AchievedRPS
		}
	}

	// Core-seconds: integrate the controller's per-interval samples over
	// the ramp; a static run used MaxCores throughout.
	if ctl != nil {
		for _, smp := range ctl.History {
			if int64(smp.At) >= rampStart {
				// Each sample covers its own window (the adaptive
				// cadence stretches idle windows).
				res.CoreSeconds += float64(smp.Threads) * smp.Window.Seconds()
			}
		}
		res.Log = ctl.Log
		ctl.Stop()
	} else {
		res.CoreSeconds = float64(s.MaxCores) * (time.Duration(windows) * s.StepWindow).Seconds()
	}
	res.Migrations = srv.Migrations
	res.FlowsMigrated = srv.FlowsMigrated
	res.Drops = srv.RxDrops()
	return res
}

// Elastic regenerates the elastic-scaling scenario as a figure: offered
// vs achieved load and allocated cores over a load ramp, with a static
// MaxCores allocation as the throughput baseline.
func Elastic(sc Scale) *Result {
	set := ElasticSetup{
		MaxCores:    4,
		PeakRPS:     900_000 * float64(sc.MemcClients*sc.MemcCores) / float64(Quick.MemcClients*Quick.MemcCores),
		Steps:       4,
		StepWindow:  sc.Window / 4,
		Warmup:      sc.Warmup,
		ClientHosts: sc.MemcClients * 3 / 4,
		ClientCores: sc.MemcCores,
	}
	el := RunElastic(set)
	stat := set
	stat.Static = true
	st := RunElastic(stat)

	r := &Result{
		Name:   "elastic thread scaling under a load ramp",
		Figure: "§3/§4.4 consolidation scenario",
		XLabel: "ms (ramp time)",
		YLabel: "kRPS / cores",
	}
	for i, p := range el.Points {
		x := p.T.Seconds() * 1e3
		r.AddPoint("offered kRPS", x, p.OfferedRPS/1000)
		r.AddPoint("elastic kRPS", x, p.AchievedRPS/1000)
		r.AddPoint("elastic cores", x, float64(p.Cores))
		r.AddPoint("elastic p99 µs", x, float64(p.P99.Microseconds()))
		if i < len(st.Points) {
			r.AddPoint("static kRPS", x, st.Points[i].AchievedRPS/1000)
		}
	}
	ratio := 0.0
	if st.PeakAchievedRPS > 0 {
		ratio = el.PeakAchievedRPS / st.PeakAchievedRPS
	}
	saved := 0.0
	if st.CoreSeconds > 0 {
		saved = 1 - el.CoreSeconds/st.CoreSeconds
	}
	r.Tables = append(r.Tables, Table{
		Title:   "elastic vs static allocation",
		Columns: []string{"metric", "elastic", "static"},
		Rows: [][]string{
			{"peak kRPS", fmt.Sprintf("%.0f", el.PeakAchievedRPS/1000), fmt.Sprintf("%.0f", st.PeakAchievedRPS/1000)},
			{"core-seconds", fmt.Sprintf("%.4f", el.CoreSeconds), fmt.Sprintf("%.4f", st.CoreSeconds)},
			{"flow-group migrations", fmt.Sprintf("%d", el.Migrations), "0"},
			{"flows migrated", fmt.Sprintf("%d", el.FlowsMigrated), "0"},
			{"RX drops", fmt.Sprintf("%d", el.Drops), fmt.Sprintf("%d", st.Drops)},
		},
	})
	r.Notes = append(r.Notes,
		fmt.Sprintf("elastic peak throughput is %.1f%% of static; core-seconds saved %.0f%%", ratio*100, saved*100),
		"cores allocated should track the offered-load triangle up and down")
	return r
}
