package chaos

import (
	"bufio"
	"encoding/json"
	"errors"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"github.com/phishinghook/phishinghook/internal/lifecycle"
	"github.com/phishinghook/phishinghook/internal/monitor"
)

func TestNamedSchedules(t *testing.T) {
	for _, name := range ScheduleNames() {
		s, err := Named(name, 7, 100*time.Millisecond)
		if err != nil {
			t.Fatalf("Named(%q): %v", name, err)
		}
		if s.Name != name || s.Seed != 7 {
			t.Fatalf("Named(%q) = name %q seed %d", name, s.Name, s.Seed)
		}
		if len(s.Windows) == 0 || s.Horizon() <= 0 {
			t.Fatalf("Named(%q): %d windows, horizon %s", name, len(s.Windows), s.Horizon())
		}
		for i, w := range s.Windows {
			if w.From >= w.To {
				t.Fatalf("Named(%q) window %d: From %s >= To %s", name, i, w.From, w.To)
			}
		}
	}
	if _, err := Named("no-such-plan", 1, time.Second); err == nil {
		t.Fatal("Named with an unknown name did not error")
	}
}

func TestInjectorWindows(t *testing.T) {
	in := NewInjector(Schedule{Seed: 1, Windows: []Window{
		{Scope: ScopeRPC, Kind: KindBlackout, Target: 1, From: 0, To: time.Hour},
		{Scope: ScopeSink, Kind: KindSinkError, Target: -1, From: 0, To: time.Hour},
		{Scope: ScopeRPC, Kind: KindLatency, Target: -1, From: time.Hour, To: 2 * time.Hour},
	}})
	if open, _ := in.active(ScopeRPC, 1); len(open) != 0 {
		t.Fatalf("windows open before Start: %v", open)
	}
	in.Start()
	open, remain := in.active(ScopeRPC, 1)
	if len(open) != 1 || open[0].Kind != KindBlackout {
		t.Fatalf("rpc/1 open = %v, want the blackout window", open)
	}
	if remain <= 0 || remain > time.Hour {
		t.Fatalf("remain = %s", remain)
	}
	if open, _ := in.active(ScopeRPC, 0); len(open) != 0 {
		t.Fatalf("rpc/0 matched a target-1 window: %v", open)
	}
	for _, target := range []int{0, 5} {
		if open, _ := in.active(ScopeSink, target); len(open) != 1 {
			t.Fatalf("sink/%d: target -1 window did not match", target)
		}
	}
	if open, _ := in.active(ScopeStore, 0); len(open) != 0 {
		t.Fatalf("store scope matched: %v", open)
	}
}

func TestWriteFault(t *testing.T) {
	blob := []byte("0123456789")
	fail := NewInjector(Schedule{Windows: []Window{
		{Scope: ScopeStore, Kind: KindWriteFail, Target: -1, From: 0, To: time.Hour},
	}})
	fail.Start()
	if _, err := fail.WriteFault()("x", blob); !errors.Is(err, ErrWriteFault) {
		t.Fatalf("write-fail returned %v, want ErrWriteFault", err)
	}

	torn := NewInjector(Schedule{Windows: []Window{
		{Scope: ScopeStore, Kind: KindWriteTorn, Target: -1, From: 0, To: time.Hour, P: 0.5},
	}})
	torn.Start()
	out, err := torn.WriteFault()("x", blob)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != len(blob)/2 {
		t.Fatalf("torn write kept %d of %d bytes, want %d", len(out), len(blob), len(blob)/2)
	}
	if n := torn.Counts()[KindWriteTorn]; n != 1 {
		t.Fatalf("torn count = %d, want 1", n)
	}

	idle := NewInjector(Schedule{})
	idle.Start()
	if out, err := idle.WriteFault()("x", blob); err != nil || len(out) != len(blob) {
		t.Fatalf("no-window write fault mutated the blob: %d bytes, err %v", len(out), err)
	}
}

func TestBindStoreRestores(t *testing.T) {
	in := NewInjector(Schedule{Windows: []Window{
		{Scope: ScopeStore, Kind: KindWriteFail, Target: -1, From: 0, To: time.Hour},
	}})
	in.Start()
	restore := in.BindStore()
	path := t.TempDir() + "/ckpt"
	if err := lifecycle.WriteFileAtomic(path, []byte("x")); !errors.Is(err, ErrWriteFault) {
		t.Fatalf("bound store write returned %v, want ErrWriteFault", err)
	}
	restore()
	if err := lifecycle.WriteFileAtomic(path, []byte("x")); err != nil {
		t.Fatalf("write still faulted after restore: %v", err)
	}
}

// echoHandler answers any request with a fixed JSON-RPC body.
func echoHandler(body string) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		io.WriteString(w, body)
	})
}

// window builds a one-window schedule open from t0 for an hour.
func window(scope Scope, kind Kind, target int, p float64) Schedule {
	return Schedule{Seed: 1, Windows: []Window{
		{Scope: scope, Kind: kind, Target: target, From: 0, To: time.Hour, P: p},
	}}
}

func TestWrapHandlerTransparent(t *testing.T) {
	in := NewInjector(window(ScopeRPC, KindBlackout, 1, 0)) // other target
	in.Start()
	srv := httptest.NewServer(in.WrapHandler(ScopeRPC, 0, echoHandler(`{"jsonrpc":"2.0","id":1,"result":"0x1"}`)))
	defer srv.Close()
	resp, err := http.Get(srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	blob, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	var v struct {
		Result string `json:"result"`
	}
	if err := json.Unmarshal(blob, &v); err != nil || v.Result != "0x1" {
		t.Fatalf("transparent wrap mangled the body: %q, %v", blob, err)
	}
}

func TestWrapHandlerBlackout(t *testing.T) {
	in := NewInjector(window(ScopeRPC, KindBlackout, -1, 0))
	in.Start()
	srv := httptest.NewServer(in.WrapHandler(ScopeRPC, 0, echoHandler("{}")))
	defer srv.Close()
	if _, err := http.Get(srv.URL); err == nil {
		t.Fatal("blackout served a response, want a transport error")
	}
	if n := in.Counts()[KindBlackout]; n == 0 {
		t.Fatal("blackout fired without being counted")
	}
}

func TestWrapHandlerMalformed(t *testing.T) {
	in := NewInjector(window(ScopeRPC, KindMalformed, -1, 0))
	in.Start()
	srv := httptest.NewServer(in.WrapHandler(ScopeRPC, 0, echoHandler("{}")))
	defer srv.Close()
	resp, err := http.Get(srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	blob, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("malformed window changed the status to %d", resp.StatusCode)
	}
	var any json.RawMessage
	if json.Unmarshal(blob, &any) == nil {
		t.Fatalf("malformed body still parses: %q", blob)
	}
}

func TestWrapHandlerTruncate(t *testing.T) {
	full := `{"jsonrpc":"2.0","id":1,"result":"` + strings.Repeat("ab", 64) + `"}`
	in := NewInjector(window(ScopeRPC, KindTruncate, -1, 0))
	in.Start()
	srv := httptest.NewServer(in.WrapHandler(ScopeRPC, 0, echoHandler(full)))
	defer srv.Close()
	resp, err := http.Get(srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	blob, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if len(blob) != len(full)/2 {
		t.Fatalf("truncate served %d bytes of %d, want half", len(blob), len(full))
	}
}

func TestWrapHandlerFilterLoss(t *testing.T) {
	in := NewInjector(window(ScopeRPC, KindFilterLoss, -1, 1))
	in.Start()
	srv := httptest.NewServer(in.WrapHandler(ScopeRPC, 0, echoHandler(`{"jsonrpc":"2.0","id":9,"result":[]}`)))
	defer srv.Close()

	post := func(body string) string {
		resp, err := http.Post(srv.URL, "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		blob, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		return string(blob)
	}

	got := post(`{"jsonrpc":"2.0","id":9,"method":"eth_getFilterChanges","params":["0x1"]}`)
	if !strings.Contains(got, "-32000") || !strings.Contains(got, `"id":9`) {
		t.Fatalf("filter poll not answered with filter-not-found: %q", got)
	}
	// A non-filter request passes through untouched.
	got = post(`{"jsonrpc":"2.0","id":9,"method":"eth_blockNumber"}`)
	if strings.Contains(got, "-32000") {
		t.Fatalf("filter-loss ate a non-filter request: %q", got)
	}
	// Mixed batches pass through; all-filter batches are answered per entry.
	got = post(`[{"jsonrpc":"2.0","id":1,"method":"eth_getFilterChanges"},{"jsonrpc":"2.0","id":2,"method":"eth_blockNumber"}]`)
	if strings.Contains(got, "-32000") {
		t.Fatalf("filter-loss ate a mixed batch: %q", got)
	}
	got = post(`[{"jsonrpc":"2.0","id":1,"method":"eth_getFilterChanges"},{"jsonrpc":"2.0","id":2,"method":"eth_getFilterLogs"}]`)
	if strings.Count(got, "-32000") != 2 {
		t.Fatalf("all-filter batch not answered per entry: %q", got)
	}
}

func TestWrapHandlerPartialBatch(t *testing.T) {
	entries := make([]string, 32)
	for i := range entries {
		entries[i] = `{"jsonrpc":"2.0","id":` + string(rune('0'+i%10)) + `,"result":"0x"}`
	}
	full := "[" + strings.Join(entries, ",") + "]"
	in := NewInjector(window(ScopeRPC, KindPartialBatch, -1, 0.5))
	in.Start()
	srv := httptest.NewServer(in.WrapHandler(ScopeRPC, 0, echoHandler(full)))
	defer srv.Close()
	resp, err := http.Get(srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	blob, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	var kept []json.RawMessage
	if err := json.Unmarshal(blob, &kept); err != nil {
		t.Fatalf("partial batch no longer parses: %v", err)
	}
	if len(kept) >= len(entries) {
		t.Fatalf("partial batch dropped nothing (%d of %d)", len(kept), len(entries))
	}
	if n := in.Counts()[KindPartialBatch]; n == 0 {
		t.Fatal("partial-batch fired without being counted")
	}
}

type recordSink struct{ alerts []monitor.Alert }

func (r *recordSink) Emit(a monitor.Alert) error {
	r.alerts = append(r.alerts, a)
	return nil
}

func TestWrapSink(t *testing.T) {
	rec := &recordSink{}
	in := NewInjector(window(ScopeSink, KindSinkError, -1, 0))
	sink := in.WrapSink(0, rec)
	// Before Start nothing faults.
	if err := sink.Emit(monitor.Alert{Address: "0x1"}); err != nil {
		t.Fatalf("pre-Start Emit: %v", err)
	}
	in.Start()
	if err := sink.Emit(monitor.Alert{Address: "0x2"}); !errors.Is(err, ErrSinkFault) {
		t.Fatalf("sink-error Emit returned %v, want ErrSinkFault", err)
	}
	if len(rec.alerts) != 1 {
		t.Fatalf("inner sink saw %d alerts, want 1 (the pre-Start one)", len(rec.alerts))
	}
	if n := in.Counts()[KindSinkError]; n != 1 {
		t.Fatalf("sink-error count = %d, want 1", n)
	}
}

func TestRollDeterminism(t *testing.T) {
	draw := func() []bool {
		in := NewInjector(Schedule{Seed: 42})
		out := make([]bool, 64)
		for i := range out {
			out[i] = in.roll(0.5)
		}
		return out
	}
	a, b := draw(), draw()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed diverged at draw %d", i)
		}
	}
}

// hijacker stands in for the node's socket path: it hijacks every upgrade
// and hands the connection to the test.
func hijacker(conns chan<- net.Conn) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if conn, _, err := w.(http.Hijacker).Hijack(); err == nil {
			conns <- conn
		}
	})
}

// upgrade sends a WebSocket opening handshake and returns the client's
// connection and the status line when the server answered one.
func upgrade(t *testing.T, url string) (net.Conn, string) {
	t.Helper()
	conn, err := net.Dial("tcp", strings.TrimPrefix(url, "http://"))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	io.WriteString(conn, "GET / HTTP/1.1\r\nHost: x\r\nConnection: Upgrade\r\nUpgrade: websocket\r\n\r\n")
	conn.SetReadDeadline(time.Now().Add(50 * time.Millisecond))
	line, _ := bufio.NewReader(conn).ReadString('\n')
	conn.SetReadDeadline(time.Time{})
	return conn, line
}

// TestWrapHandlerSocketFaults: inside a sub-drop window an upgrade is
// refused 503 and an existing socket closes at its next write; inside a
// sub-stall window a write waits for the window to close, then lands.
func TestWrapHandlerSocketFaults(t *testing.T) {
	conns := make(chan net.Conn, 4)
	const stall = 80 * time.Millisecond
	in := NewInjector(Schedule{Seed: 1, Windows: []Window{
		{Scope: ScopeRPC, Kind: KindSubStall, Target: -1, From: 0, To: stall},
		{Scope: ScopeRPC, Kind: KindSubDrop, Target: -1, From: stall, To: time.Hour},
	}})
	srv := httptest.NewServer(in.WrapHandler(ScopeRPC, 0, hijacker(conns)))
	defer srv.Close()

	client, _ := upgrade(t, srv.URL) // before Start: no window is open
	server := <-conns
	in.Start()
	t0 := time.Now()
	if _, err := server.Write([]byte("held")); err != nil {
		t.Fatalf("stalled write failed: %v", err)
	}
	if held := time.Since(t0); held < stall/2 {
		t.Fatalf("write left after %v, inside the %v stall", held, stall)
	}
	got := make([]byte, 4)
	if _, err := io.ReadFull(client, got); err != nil || string(got) != "held" {
		t.Fatalf("client read %q, %v", got, err)
	}
	for time.Since(t0) < stall {
		time.Sleep(time.Millisecond)
	}
	if _, err := server.Write([]byte("x")); err == nil {
		t.Fatal("write inside the sub-drop window went through")
	}
	if _, err := client.Read(got); err == nil {
		t.Fatal("socket stayed open after the sub-drop window opened")
	}
	if _, status := upgrade(t, srv.URL); !strings.Contains(status, "503") {
		t.Fatalf("upgrade inside sub-drop answered %q, want 503", status)
	}
	if c := in.Counts(); c[KindSubStall] != 1 || c[KindSubDrop] != 2 {
		t.Fatalf("counts %v, want one stall and two drops", c)
	}
}
