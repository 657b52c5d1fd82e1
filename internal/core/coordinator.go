package patchwork

import (
	"fmt"
	"runtime"
	"sort"
	"strings"
	"sync"

	"repro/internal/obs"
	"repro/internal/rng"
	"repro/internal/sim"
	"repro/internal/telemetry"
	"repro/internal/testbed"
)

// Coordinator is the component that runs outside the testbed: it
// configures Patchwork, starts it on the selected sites, gathers the
// resulting bundles, and yields resources back (Fig. 7, steps 1-5).
type Coordinator struct {
	Federation *testbed.Federation
	Store      *telemetry.Store
	Poller     *telemetry.Poller

	cfg Config
	r   *rng.Source

	// instances routes remediation actions to running site instances.
	instances map[string]*siteInstance
	// compressSem holds a token for each harvested capture stream being
	// gzipped, bounding compression to GOMAXPROCS streams at once;
	// compressing counts every site's streams not yet compressed.
	compressSem chan struct{}
	compressing sync.WaitGroup
	// chunks is the free list every site's capture streams take their
	// chunks from and compression returns them to.
	chunks chunkList
}

// NewCoordinator wires a coordinator to a federation and its telemetry.
func NewCoordinator(f *testbed.Federation, store *telemetry.Store, poller *telemetry.Poller, cfg Config) (*Coordinator, error) {
	cfg = cfg.withDefaults()
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return &Coordinator{
		Federation: f, Store: store, Poller: poller,
		cfg:         cfg,
		r:           rng.New(cfg.Seed ^ 0x70617463), // "patc"
		compressSem: make(chan struct{}, runtime.GOMAXPROCS(0)),
	}, nil
}

// Profile is the result of one coordinated run across sites.
type Profile struct {
	// Bundles holds one bundle per profiled site, in site order.
	Bundles []Bundle
	// Started and Finished bound the run in virtual time.
	Started, Finished sim.Time
}

// OutcomeCounts tallies bundles per outcome (the Fig. 10 quantities).
func (p *Profile) OutcomeCounts() map[Outcome]int {
	out := make(map[Outcome]int)
	for _, b := range p.Bundles {
		out[b.Outcome]++
	}
	return out
}

// SuccessRate is the fraction of sites whose outcome was Success or
// Degraded (profiling completed).
func (p *Profile) SuccessRate() float64 {
	if len(p.Bundles) == 0 {
		return 0
	}
	ok := 0
	for _, b := range p.Bundles {
		if b.Outcome == OutcomeSuccess || b.Outcome == OutcomeDegraded {
			ok++
		}
	}
	return float64(ok) / float64(len(p.Bundles))
}

// targetSites resolves the configured site list.
func (c *Coordinator) targetSites() ([]*testbed.Site, error) {
	if len(c.cfg.Sites) == 0 {
		if c.cfg.Mode == SingleExperiment {
			return nil, fmt.Errorf("patchwork: single-experiment mode requires sites")
		}
		return c.Federation.Sites(), nil
	}
	var out []*testbed.Site
	for _, name := range c.cfg.Sites {
		s := c.Federation.Site(name)
		if s == nil {
			return nil, fmt.Errorf("patchwork: unknown site %q", name)
		}
		out = append(out, s)
	}
	return out, nil
}

// Start launches Patchwork on every target site and invokes done with
// the gathered profile when the last site finishes. The simulation
// kernel must be run (or stepped) by the caller for progress to happen.
func (c *Coordinator) Start(done func(*Profile, error)) {
	sites, err := c.targetSites()
	if err != nil {
		done(nil, err)
		return
	}
	k := c.Federation.Kernel
	profile := &Profile{Started: k.Now()}
	expSpan := c.cfg.Tracer.Start("experiment",
		obs.L("mode", c.cfg.Mode.String()), obs.L("sites", fmt.Sprintf("%d", len(sites))))
	remaining := len(sites)
	if remaining == 0 {
		profile.Finished = k.Now()
		expSpan.End()
		done(profile, nil)
		return
	}
	bundles := make([]Bundle, len(sites))
	c.instances = make(map[string]*siteInstance, len(sites))
	for i, site := range sites {
		i, site := i, site
		inst := &siteInstance{
			cfg:        c.cfg,
			site:       site,
			store:      c.Store,
			poller:     c.Poller,
			kernel:     k,
			r:          c.r.Split(),
			parentSpan: expSpan,
			compress:   c.compress,
			chunks:     &c.chunks,
		}
		inst.bundle.Site = site.Spec.Name
		c.instances[site.Spec.Name] = inst
		// Stagger starts slightly: the coordinator contacts sites one at
		// a time (and the testbed's allocator handles small slices more
		// happily than large ones).
		k.After(sim.Duration(i)*sim.Second, func() {
			inst.run(func(b Bundle) {
				bundles[i] = b
				remaining--
				if remaining == 0 {
					profile.Bundles = bundles
					profile.Finished = k.Now()
					expSpan.End()
					done(profile, nil)
				}
			})
		})
	}
}

// RemediateSite executes one remediation action against the named
// site's running instance. It implements the remedy supervisor's Target
// contract: the action strings are remedy's catalog, the note describes
// what changed, and an error means this attempt failed (the supervisor
// retries under its budgets). All mutations happen synchronously on the
// caller's kernel event, keeping remediation deterministic.
func (c *Coordinator) RemediateSite(action, site string) (string, error) {
	// Storage-error alerts are campaign-scoped (the artifact volume is
	// shared, so the metric carries no site label); the supervisor routes
	// them here with the wildcard site and the action fans out.
	if action == "free-space" && site == "*" {
		return c.freeSpaceAll()
	}
	inst := c.instances[site]
	if inst == nil {
		return "", fmt.Errorf("patchwork: no instance at site %q", site)
	}
	if inst.finished {
		return "", fmt.Errorf("patchwork: instance at %q already finished", site)
	}
	if inst.done == nil {
		return "", fmt.Errorf("patchwork: instance at %q not started yet", site)
	}
	switch action {
	case "restart-listener":
		return inst.remediateRestart()
	case "reallocate":
		return inst.remediateReallocate()
	case "rearm-mirror":
		return inst.remediateRearmMirror()
	case "rotate-storage":
		return inst.remediateRotateStorage()
	case "free-space":
		return inst.remediateFreeSpace()
	}
	return "", fmt.Errorf("patchwork: unknown remediation action %q", action)
}

// PauseCapture pauses (or resumes) every capture engine across all
// running instances — the campaign's graceful-ENOSPC lever: when
// artifact writes start failing for lack of space, capture stops
// filling the disk until a free-space remediation lands. Returns how
// many engines changed state.
func (c *Coordinator) PauseCapture(p bool) int {
	n := 0
	for _, inst := range c.instances {
		if inst == nil || inst.finished {
			continue
		}
		n += inst.pauseCapture(p)
	}
	return n
}

// freeSpaceAll fans the free-space action out to every running
// instance, in site order so notes and mutation logs stay
// deterministic.
func (c *Coordinator) freeSpaceAll() (string, error) {
	sites := make([]string, 0, len(c.instances))
	for site, inst := range c.instances {
		if inst == nil || inst.finished || inst.done == nil {
			continue
		}
		sites = append(sites, site)
	}
	sort.Strings(sites)
	var notes []string
	for _, site := range sites {
		note, err := c.instances[site].remediateFreeSpace()
		if err != nil {
			continue // nothing to free there; try the rest
		}
		notes = append(notes, site+": "+note)
	}
	if len(notes) == 0 {
		return "", fmt.Errorf("patchwork: free-space: no running instance had anything to free")
	}
	return strings.Join(notes, "; "), nil
}

// Wait blocks until every harvested capture stream has been compressed,
// then drops the idle chunks those streams returned to the free list.
// Each site's bundle already waits for its own streams before delivery,
// so a completed profile has none pending; every run path calls Wait
// on its way out, a run abandoned at a crash point, an error or a
// stalled kernel included, so no compression and no idle chunk outlives
// the run.
func (c *Coordinator) Wait() {
	c.compressing.Wait()
	c.chunks.drop()
}

// Run is the synchronous convenience wrapper: it starts the profile and
// drives the kernel until completion.
func (c *Coordinator) Run() (*Profile, error) {
	defer c.Wait()
	var out *Profile
	var outErr error
	finished := false
	c.Start(func(p *Profile, err error) {
		out, outErr = p, err
		finished = true
	})
	k := c.Federation.Kernel
	for !finished {
		if !k.Step() {
			return nil, fmt.Errorf("patchwork: simulation stalled before profile completion")
		}
	}
	return out, outErr
}
