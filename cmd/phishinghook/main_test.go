package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
	"syscall"
	"testing"
	"time"
)

var update = flag.Bool("update", false, "rewrite testdata/help.golden from the current CLI")

// TestMain lets a test run the CLI as a child process: the test binary
// re-executes itself with PHISHINGHOOK_TEST_MAIN=1, and the child runs main
// on its own arguments instead of the tests.
func TestMain(m *testing.M) {
	if os.Getenv("PHISHINGHOOK_TEST_MAIN") == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// cli returns a command that runs phishinghook with args in a child process.
func cli(args ...string) *exec.Cmd {
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), "PHISHINGHOOK_TEST_MAIN=1")
	return cmd
}

// run runs phishinghook with args to completion and returns its combined
// output and exit status.
func run(t *testing.T, args ...string) (string, int) {
	t.Helper()
	out, err := cli(args...).CombinedOutput()
	var exit *exec.ExitError
	switch {
	case err == nil:
		return string(out), 0
	case errors.As(err, &exit):
		return string(out), exit.ExitCode()
	}
	t.Fatalf("phishinghook %s: %v", strings.Join(args, " "), err)
	return "", 0
}

var subcommands = []string{
	"gather", "label", "extract", "disasm", "dataset", "evaluate", "train", "score",
	"serve", "route", "watch", "txwatch", "backfill", "chaos", "retrain",
}

// TestHelpGolden pins the bare usage and every subcommand's -h output and
// exit status.
func TestHelpGolden(t *testing.T) {
	if len(subcommands) != len(commands) {
		t.Fatalf("the golden covers %d subcommands, the CLI has %d", len(subcommands), len(commands))
	}
	cases := [][]string{nil}
	for _, c := range subcommands {
		cases = append(cases, []string{c, "-h"})
	}
	var got bytes.Buffer
	for _, args := range cases {
		out, code := run(t, args...)
		fmt.Fprintf(&got, "$ %s\nexit %d\n%s\n", strings.Join(append([]string{"phishinghook"}, args...), " "), code, out)
	}
	golden := filepath.Join("testdata", "help.golden")
	if *update {
		if err := os.WriteFile(golden, got.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if got.String() != string(want) {
		t.Fatalf("help output differs from %s (rerun with -update after an intended change):\n--- got ---\n%s", golden, got.String())
	}
}

// TestEndpointRule pins the one endpoint rule: with any endpoint flag set,
// a command missing an endpoint it needs fails and names the flag instead
// of running on the simulation, and a real endpoint is really dialled.
func TestEndpointRule(t *testing.T) {
	for _, c := range []struct {
		args []string
		want string
	}{
		{[]string{"gather", "-rpc", "http://127.0.0.1:1"}, "-explorer"},
		{[]string{"backfill", "-endpoints", "http://127.0.0.1:1"}, "-explorer"},
		{[]string{"txwatch", "-rpc", "http://127.0.0.1:1"}, "resolve current head"},
	} {
		out, code := run(t, c.args...)
		if code == 0 || !strings.Contains(out, c.want) {
			t.Errorf("phishinghook %s: exit %d, want non-zero and an error naming %q; output:\n%s",
				strings.Join(c.args, " "), code, c.want, out)
		}
	}
}

// TestBusyListenFails runs backfill with -listen on a taken address: the
// run must fail instead of going on without its counters.
func TestBusyListenFails(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	if out, code := run(t, "backfill", "-listen", ln.Addr().String()); code == 0 || !strings.Contains(out, "bind -listen") {
		t.Fatalf("backfill -listen %s: exit %d, want non-zero and a bind error; output:\n%s", ln.Addr(), code, out)
	}
}

var scored = regexp.MustCompile(`, (\d+) scored,`)

// TestWatchersResumeFromCheckpoint runs watch and txwatch on the simulation
// twice over one -checkpoint: the rerun must score nothing.
func TestWatchersResumeFromCheckpoint(t *testing.T) {
	for _, cmd := range []string{"watch", "txwatch"} {
		t.Run(cmd, func(t *testing.T) {
			args := []string{cmd, "-tick", "3ms", "-blocks-per-tick", "30000",
				"-checkpoint", filepath.Join(t.TempDir(), "cursor")}
			for i := 1; i <= 2; i++ {
				out, code := run(t, args...)
				m := scored.FindStringSubmatch(out)
				if code != 0 || m == nil || (m[1] == "0") != (i == 2) {
					t.Fatalf("run %d: exit %d; want exit 0, work scored on run 1 and none on run 2; output:\n%s", i, code, out)
				}
			}
		})
	}
}

// TestTxWatchResumesAfterSIGTERM stops a simulated txwatch with SIGTERM
// mid-replay and resumes it over the same checkpoint and alert file: the
// stopped run must exit 0 with its summary, and no tx may be alerted twice.
func TestTxWatchResumesAfterSIGTERM(t *testing.T) {
	dir := t.TempDir()
	alerts := filepath.Join(dir, "alerts.jsonl")
	args := []string{"txwatch", "-checkpoint", filepath.Join(dir, "tx.cursor"), "-alerts", alerts}

	c := startChild(t, append(args, "-tick", "100ms")...)
	c.await(t, "a first alert", func() bool { return len(alertedTxs(t, alerts)) > 0 })
	if out := c.stop(t); !strings.Contains(out, "judged txs through block") || !strings.Contains(out, "interrupted") {
		t.Fatalf("SIGTERM mid-replay: want the summary and the resume hint; output:\n%s", out)
	}
	first := len(alertedTxs(t, alerts))

	if out, code := run(t, append(args, "-tick", "3ms", "-blocks-per-tick", "30000")...); code != 0 {
		t.Fatalf("resume: exit %d\n%s", code, out)
	}
	seen := map[string]bool{}
	for _, tx := range alertedTxs(t, alerts) {
		if seen[tx] {
			t.Fatalf("tx %s alerted twice across the SIGTERM and the resume", tx)
		}
		seen[tx] = true
	}
	if len(seen) <= first {
		t.Fatalf("the resume added no alerts (%d before it, %d after)", first, len(seen))
	}
}

// alertedTxs lists the tx hash of every complete line in a JSONL alert file.
func alertedTxs(t *testing.T, path string) []string {
	t.Helper()
	blob, err := os.ReadFile(path)
	if errors.Is(err, os.ErrNotExist) {
		return nil
	}
	if err != nil {
		t.Fatal(err)
	}
	var txs []string
	for _, line := range bytes.SplitAfter(blob, []byte("\n")) {
		if !bytes.HasSuffix(line, []byte("\n")) {
			continue
		}
		var a struct {
			TxHash string `json:"tx_hash"`
		}
		if err := json.Unmarshal(line, &a); err != nil {
			t.Fatalf("alert line %q: %v", line, err)
		}
		txs = append(txs, a.TxHash)
	}
	return txs
}

// TestServeStoreKeepsTelemetry serves from a model store with -telemetry,
// first seeding the empty store and then reopening it: both times /score
// must carry the dead-code ratio.
func TestServeStoreKeepsTelemetry(t *testing.T) {
	store := filepath.Join(t.TempDir(), "models")
	client := &http.Client{Timeout: 10 * time.Second}
	for _, step := range []string{"seeding", "reopening"} {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		base := "http://" + ln.Addr().String()
		ln.Close()
		c := startChild(t, "serve", "-store", store, "-telemetry", "-listen", strings.TrimPrefix(base, "http://"))
		c.await(t, "/healthz", func() bool {
			resp, err := client.Get(base + "/healthz")
			if err != nil {
				return false
			}
			resp.Body.Close()
			return resp.StatusCode == http.StatusOK
		})
		resp, err := client.Post(base+"/score", "application/json", strings.NewReader(
			`{"bytecode":"0x6080604052348015600f57600080fd5b5060043610603c5760003560e01c8063a9059cbb14604157005b600080fd5b00ff00ff00"}`))
		if err != nil {
			t.Fatal(err)
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		c.stop(t)
		if !strings.Contains(string(body), `"dead_code_ratio"`) {
			t.Fatalf("%s the store: /score answered %s, want dead_code_ratio", step, body)
		}
	}
}

// child is a CLI process a test started; the test's cleanup kills and
// reaps it.
type child struct {
	cmd    *exec.Cmd
	out    bytes.Buffer
	exited chan struct{}
	err    error // Wait's result, set before exited closes
}

func startChild(t *testing.T, args ...string) *child {
	t.Helper()
	c := &child{cmd: cli(args...), exited: make(chan struct{})}
	c.cmd.Stdout, c.cmd.Stderr = &c.out, &c.out
	if err := c.cmd.Start(); err != nil {
		t.Fatal(err)
	}
	go func() { c.err = c.cmd.Wait(); close(c.exited) }()
	t.Cleanup(func() { c.cmd.Process.Kill(); <-c.exited })
	return c
}

// await polls ready until it holds, failing if the child exits first or
// two minutes pass.
func (c *child) await(t *testing.T, what string, ready func() bool) {
	t.Helper()
	deadline := time.After(2 * time.Minute)
	for !ready() {
		select {
		case <-c.exited:
			t.Fatalf("exited before %s: %v\n%s", what, c.err, c.out.String())
		case <-deadline:
			t.Fatalf("no %s within 2 minutes", what)
		case <-time.After(20 * time.Millisecond):
		}
	}
}

// stop sends SIGTERM, waits for the child to exit 0 and returns its output.
func (c *child) stop(t *testing.T) string {
	t.Helper()
	if err := c.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	<-c.exited
	if c.err != nil {
		t.Fatalf("SIGTERM: %v, want exit 0; output:\n%s", c.err, c.out.String())
	}
	return c.out.String()
}
