package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"sync"
	"syscall"
	"time"

	"diffreg/internal/serve"
)

// Daemon settings of every served run: fusion up to width 4 and a
// write-ahead journal.
var daemonArgs = []string{"-max-batch", "4", "-q"}

// Solver slots of the daemon. Every solve runs 2 ranks, so one slot keeps
// the 2 CPUs of the reference host busy without oversubscribing them; with
// two slots, two 2-rank solves share 2 CPUs and a run's timings follow
// the host's neighbours more than the program. The mixed-arrival probe
// keeps two slots, the set-up its plan-cache thrash baseline was taken at.
const (
	servingWorkers = 1
	mixedWorkers   = 2
)

// Batch windows. The measured studies use steadyWindow: long enough that
// the four same-precision jobs of a study, each a POST of inline volumes
// with a journal fsync, reach the fusion dispatcher as one group. With a
// window shorter than the burst, such as the daemon's default, the groups
// split at timing-dependent points; the traced run measures that case
// separately (mixedArrivals).
const (
	steadyWindow  = "500ms"
	defaultWindow = "25ms"
)

// pollEvery is how often the client polls the job list for completions.
const pollEvery = 20 * time.Millisecond

// daemon is one regserve process started by the benchmark.
type daemon struct {
	cmd     *exec.Cmd
	base    string
	journal string
	client  *http.Client
}

// startDaemon starts regserve on a free loopback port with the given
// fusion batch window and solver slots and its journal under dir, and
// waits for /readyz. It returns the seconds from process start to ready.
func startDaemon(bin, dir, window string, workers int) (*daemon, float64, error) {
	if bin == "" {
		return nil, 0, fmt.Errorf("no regserve binary given (-regserve)")
	}
	port, err := freePort()
	if err != nil {
		return nil, 0, err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, 0, err
	}
	logFile, err := os.Create(filepath.Join(dir, "regserve.log"))
	if err != nil {
		return nil, 0, err
	}
	defer logFile.Close()
	d := &daemon{
		base:    "http://127.0.0.1:" + strconv.Itoa(port),
		journal: filepath.Join(dir, "journal"),
		client: &http.Client{
			Timeout:   2 * time.Minute,
			Transport: &http.Transport{MaxConnsPerHost: 2, MaxIdleConnsPerHost: 2},
		},
	}
	args := append([]string{"-addr", "127.0.0.1:" + strconv.Itoa(port), "-journal", d.journal, "-batch-window", window, "-workers", strconv.Itoa(workers)}, daemonArgs...)
	d.cmd = exec.Command(bin, args...)
	d.cmd.Stdout, d.cmd.Stderr = logFile, logFile
	// The daemon must not outlive the benchmark, even a killed one.
	d.cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	t0 := time.Now()
	if err := d.cmd.Start(); err != nil {
		return nil, 0, err
	}
	for time.Since(t0) < 30*time.Second {
		resp, err := d.client.Get(d.base + "/readyz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return d, time.Since(t0).Seconds(), nil
			}
		}
		time.Sleep(2 * time.Millisecond)
	}
	d.stop()
	return nil, 0, fmt.Errorf("regserve did not become ready within 30s (log: %s)", logFile.Name())
}

func freePort() (int, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer l.Close()
	return l.Addr().(*net.TCPAddr).Port, nil
}

// stop drains the daemon with SIGTERM, waits for it to exit, and returns
// its peak resident set size in bytes. Stopping a stopped daemon is a
// no-op.
func (d *daemon) stop() (float64, error) {
	if d.cmd.ProcessState != nil {
		return 0, nil
	}
	d.client.CloseIdleConnections()
	d.cmd.Process.Signal(syscall.SIGTERM)
	exited := make(chan error, 1)
	go func() { exited <- d.cmd.Wait() }()
	var err error
	select {
	case err = <-exited:
	case <-time.After(60 * time.Second):
		d.cmd.Process.Kill()
		err = <-exited
		if err == nil {
			err = fmt.Errorf("regserve did not drain within 60s")
		}
	}
	rss := 0.0
	if ru, ok := d.cmd.ProcessState.SysUsage().(*syscall.Rusage); ok {
		rss = float64(ru.Maxrss) * 1024
	}
	return rss, err
}

func (d *daemon) getJSON(path string, v any) error {
	resp, err := d.client.Get(d.base + path)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(resp.Body)
		return fmt.Errorf("GET %s: %s: %s", path, resp.Status, bytes.TrimSpace(body))
	}
	return json.NewDecoder(resp.Body).Decode(v)
}

func (d *daemon) stats() (serve.ServerStats, error) {
	var st serve.ServerStats
	err := d.getJSON("/stats", &st)
	return st, err
}

// journalBytes is the on-disk size of the daemon's journal directory.
func (d *daemon) journalBytes() float64 {
	total := 0.0
	filepath.Walk(d.journal, func(_ string, fi os.FileInfo, err error) error {
		if err == nil && fi.Mode().IsRegular() {
			total += float64(fi.Size())
		}
		return nil
	})
	return total
}

// servedJob is one registration submitted to the daemon.
type servedJob struct {
	subject        int
	p              pair
	precision      string
	incompressible bool
	body           []byte // encoded JobSpec with inline volumes

	id       string
	submitS  float64 // POST round trip
	latencyS float64 // submit start to observed completion
	status   serve.JobStatus
}

// newServedJob encodes the job spec: the volumes go inline, so the
// daemon receives images, not generator seeds, and returns the warped
// template for the output checks.
// maxIters > 0 bounds the Newton iterations (warm-up jobs).
func newServedJob(subject int, p pair, precision string, incompressible bool, maxIters int) (*servedJob, error) {
	spec := serve.JobSpec{
		N: p.template.N, Template: p.template.Data, Reference: p.reference.Data,
		Tasks: tasks, Precision: precision, Incompressible: incompressible,
		MaxNewtonIters: maxIters, ReturnFields: true,
	}
	body, err := json.Marshal(spec)
	if err != nil {
		return nil, err
	}
	return &servedJob{subject: subject, p: p, precision: precision, incompressible: incompressible, body: body}, nil
}

// submit POSTs one job and records its ID and round trip.
func (d *daemon) submit(j *servedJob) (start, end time.Time, err error) {
	start = time.Now()
	resp, err := d.client.Post(d.base+"/jobs", "application/json", bytes.NewReader(j.body))
	if err != nil {
		return start, start, err
	}
	var ack struct {
		ID string `json:"id"`
	}
	err = json.NewDecoder(resp.Body).Decode(&ack)
	resp.Body.Close()
	end = time.Now()
	if err != nil || resp.StatusCode != http.StatusAccepted {
		return start, end, fmt.Errorf("POST /jobs: %s (%v)", resp.Status, err)
	}
	j.id = ack.ID
	j.submitS = end.Sub(start).Seconds()
	return start, end, nil
}

// runBatch submits the jobs as one burst, polls until every job is
// terminal, then fetches each result. With conns = 1 the jobs are posted
// in order over one connection; with conns = 2 they alternate between two
// connections posting concurrently. It returns the seconds from the first
// submission to the last observed completion.
func (d *daemon) runBatch(jobs []*servedJob, conns int, tr *tracer) (float64, error) {
	if tr != nil {
		tr.begin("serve.study")
		defer tr.end()
	}
	t0 := time.Now()
	submitted := make([]time.Time, len(jobs))
	ended := make([]time.Time, len(jobs))
	errs := make([]error, conns)
	var wg sync.WaitGroup
	for c := 0; c < conns; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := c; i < len(jobs) && errs[c] == nil; i += conns {
				submitted[i], ended[i], errs[c] = d.submit(jobs[i])
			}
		}(c)
	}
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		return 0, err
	}
	pending := map[string]int{}
	for i, j := range jobs {
		if tr != nil {
			tr.add("serve.submit", submitted[i], ended[i])
		}
		pending[j.id] = i
	}
	waitStart := time.Now()
	last := t0
	for len(pending) > 0 {
		if time.Since(t0) > 2*time.Minute {
			return 0, fmt.Errorf("%d jobs still pending after 2 minutes", len(pending))
		}
		time.Sleep(pollEvery)
		var list []struct {
			ID    string         `json:"id"`
			State serve.JobState `json:"state"`
		}
		if err := d.getJSON("/jobs?limit=64", &list); err != nil {
			return 0, err
		}
		now := time.Now()
		for _, e := range list {
			if i, ok := pending[e.ID]; ok && e.State.Terminal() {
				jobs[i].latencyS = now.Sub(submitted[i]).Seconds()
				delete(pending, e.ID)
				last = now
			}
		}
	}
	if tr != nil {
		tr.add("serve.wait", waitStart, last)
		tr.begin("serve.fetch")
		defer tr.end()
	}
	for _, j := range jobs {
		if err := d.getJSON("/jobs/"+j.id, &j.status); err != nil {
			return 0, err
		}
	}
	return last.Sub(t0).Seconds(), nil
}

// checkJobs counts each job as one operation: a job that did not finish
// failed, and a finished one whose output fails a check is wrong. It
// returns the misfit ratios of the jobs that passed.
func checkJobs(rep *report, jobs []*servedJob) []float64 {
	var ratios []float64
	for _, j := range jobs {
		rep.Attempted++
		if j.status.State != serve.JobDone || j.status.Result == nil {
			rep.fail("job %s (subject %d, %s) ended %s: %s", j.id, j.subject, j.precision, j.status.State, j.status.Error)
			continue
		}
		ratio, err := j.check()
		if err != nil {
			rep.wrong("job %s (subject %d, %s): %v", j.id, j.subject, j.precision, err)
			continue
		}
		ratios = append(ratios, ratio)
	}
	return ratios
}

// check runs the output checks on a finished served job.
func (j *servedJob) check() (float64, error) {
	r := j.status.Result
	return outcome{
		N: j.p.template.N, Template: j.p.template.Data, Reference: j.p.reference.Data,
		Warped: r.Warped, MisfitInit: r.MisfitInit, MisfitFinal: r.MisfitFinal, DetMin: r.DetMin,
		Isochoric: j.incompressible, Narrow: j.precision == "float32",
	}.verify(defaultLimits)
}

// summary is the served result in the form sameBits compares.
func (j *servedJob) summary() solveSummary {
	r := j.status.Result
	return solveSummary{
		NewtonIters: r.NewtonIters, HessianMatvecs: r.HessianMatvecs,
		MisfitInit: r.MisfitInit, MisfitFinal: r.MisfitFinal,
		DetMin: r.DetMin, DetMax: r.DetMax, DetMean: r.DetMean, Warped: r.Warped,
	}
}

// serveSnapshot is the daemon state a traced run differences.
type serveSnapshot struct {
	stats        serve.ServerStats
	journalBytes float64
}

func (d *daemon) snapshot() (serveSnapshot, error) {
	st, err := d.stats()
	if err != nil {
		return serveSnapshot{}, fmt.Errorf("GET /stats: %w", err)
	}
	return serveSnapshot{stats: st, journalBytes: d.journalBytes()}, nil
}

// serveCounters are the /stats counters a run differences.
type serveCounters struct {
	hits, misses, evictions, batches, fusedJobs, records float64
}

func countersOf(st serve.ServerStats) serveCounters {
	return serveCounters{
		hits: float64(st.Cache.Hits), misses: float64(st.Cache.Misses), evictions: float64(st.Cache.Evictions),
		batches: float64(st.Fusion.Batches), fusedJobs: float64(st.Fusion.FusedJobs),
		records: float64(st.Journal.Records),
	}
}

// reportServeLayer sets the serve.* per-layer metrics from the client's
// measurements, and from the /stats counters and the journal's growth on
// disk over the measured batches, which took elapsed seconds.
func reportServeLayer(rep *report, jobs []*servedJob, elapsed float64, before, after serveSnapshot) {
	var submit, wait, run, latency []float64
	for _, j := range jobs {
		submit = append(submit, j.submitS)
		latency = append(latency, j.latencyS)
		if r := j.status.Result; r != nil {
			run = append(run, r.TimeToSolution)
			wait = append(wait, j.latencyS-r.TimeToSolution)
		}
	}
	b, a := countersOf(before.stats), countersOf(after.stats)
	rep.set("serve.submit_s", median(submit), "s")
	rep.set("serve.queue_wait_s", median(wait), "s")
	rep.set("serve.run_s", median(run), "s")
	rep.set("serve.job_latency_s.p50", median(latency), "s")
	rep.set("serve.jobs_per_min", 60*float64(len(jobs))/elapsed, "1/min")
	rep.set("serve.cache_hits", a.hits-b.hits, "count")
	rep.set("serve.cache_misses", a.misses-b.misses, "count")
	rep.set("serve.cache_evictions", a.evictions-b.evictions, "count")
	rep.set("serve.fused_batches", a.batches-b.batches, "count")
	fill := 0.0
	if n := a.batches - b.batches; n > 0 {
		fill = (a.fusedJobs - b.fusedJobs) / n / float64(after.stats.Fusion.MaxBatch)
	}
	rep.set("serve.fusion_mean_fill", fill, "ratio")
	rep.set("serve.journal_records", a.records-b.records, "count")
	rep.set("serve.journal_bytes", after.journalBytes-before.journalBytes, "bytes")
}
