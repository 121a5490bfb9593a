package main

// The daemon is tested as a process: TestMain re-executes this test binary
// as opinedbd itself when opinedbdChildEnv is set, so each test starts the
// real main() with real flags and observes its exit status and its HTTP
// surface.

import (
	"bytes"
	"encoding/json"
	"errors"
	"net"
	"net/http"
	"net/url"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"

	"repro/internal/harness"
	"repro/internal/server"
	"repro/internal/snapshot"
)

const opinedbdChildEnv = "OPINEDBD_TEST_CHILD"

func TestMain(m *testing.M) {
	if os.Getenv(opinedbdChildEnv) != "" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// daemon starts opinedbd with args, its combined output in out.
func daemon(t *testing.T, out *bytes.Buffer, args ...string) *exec.Cmd {
	t.Helper()
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), opinedbdChildEnv+"=1")
	cmd.Stdout, cmd.Stderr = out, out
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	return cmd
}

// exitCode waits up to 30s for cmd and returns its exit status.
func exitCode(t *testing.T, cmd *exec.Cmd, out *bytes.Buffer) int {
	t.Helper()
	done := make(chan error, 1)
	go func() { done <- cmd.Wait() }()
	select {
	case err := <-done:
		var exit *exec.ExitError
		if errors.As(err, &exit) {
			return exit.ExitCode()
		}
		if err != nil {
			t.Fatalf("wait: %v", err)
		}
		return 0
	case <-time.After(30 * time.Second):
		_ = cmd.Process.Kill()
		<-done
		t.Fatalf("opinedbd still running after 30s; output:\n%s", out)
		return 0
	}
}

// TestMissingSnapshotIsFatal: a -snapshot path that does not exist stops
// the daemon with an error; it never builds a database of its own.
func TestMissingSnapshotIsFatal(t *testing.T) {
	var out bytes.Buffer
	cmd := daemon(t, &out, "-snapshot", filepath.Join(t.TempDir(), "absent.snap"), "-addr", "127.0.0.1:0")
	if code := exitCode(t, cmd, &out); code == 0 {
		t.Fatalf("exit status 0 for a missing snapshot; output:\n%s", &out)
	}
	if !strings.Contains(out.String(), "snapshot load failed") {
		t.Errorf("output does not report the failed load:\n%s", &out)
	}
	if strings.Contains(out.String(), "build") {
		t.Errorf("daemon built a database:\n%s", &out)
	}
}

// TestNoRoleIsUsageError: starting without -snapshot, -shard-manifest or
// -router exits 2 with the usage text.
func TestNoRoleIsUsageError(t *testing.T) {
	var out bytes.Buffer
	cmd := daemon(t, &out, "-addr", "127.0.0.1:0")
	if code := exitCode(t, cmd, &out); code != 2 {
		t.Fatalf("exit status %d, want 2; output:\n%s", code, &out)
	}
	if !strings.Contains(out.String(), "choose a role") || !strings.Contains(out.String(), "-snapshot") {
		t.Errorf("no usage message:\n%s", &out)
	}
}

// TestListenersHaveConnectionLimits: every listener of both commands —
// opinedbd's serving port and the -debug-addr surface of opinedbd and
// opinedbb — is built by server.NewHTTPServer, so each cuts off a stalled
// header sender and an idle keep-alive connection. The limits are checked
// on the constructor; that both commands use it and nothing else is
// checked on their sources.
func TestListenersHaveConnectionLimits(t *testing.T) {
	srv := server.NewHTTPServer("127.0.0.1:0", http.NotFoundHandler())
	if srv.ReadHeaderTimeout != 10*time.Second || srv.IdleTimeout != 120*time.Second {
		t.Errorf("ReadHeaderTimeout %v, IdleTimeout %v; want 10s, 120s", srv.ReadHeaderTimeout, srv.IdleTimeout)
	}
	for _, cmd := range []string{".", "../opinedbb"} {
		files, err := filepath.Glob(filepath.Join(cmd, "*.go"))
		if err != nil {
			t.Fatal(err)
		}
		uses := 0
		for _, f := range files {
			if strings.HasSuffix(f, "_test.go") {
				continue
			}
			src, err := os.ReadFile(f)
			if err != nil {
				t.Fatal(err)
			}
			for _, bare := range []string{"http.ListenAndServe(", "http.Server{", "http.Serve("} {
				if bytes.Contains(src, []byte(bare)) {
					t.Errorf("%s opens a listener with %s instead of server.NewHTTPServer", f, bare)
				}
			}
			uses += bytes.Count(src, []byte("server.NewHTTPServer(*debugAddr"))
		}
		if uses != 1 {
			t.Errorf("%s: %d debug listeners built by server.NewHTTPServer, want 1", cmd, uses)
		}
	}
}

// TestServesSnapshot: a small snapshot written here serves /healthz and
// answers a /query, then shuts down cleanly on SIGTERM.
func TestServesSnapshot(t *testing.T) {
	if testing.Short() {
		t.Skip("builds a database")
	}
	_, db, err := harness.BuildDomain("hotel", true, 1, 0, 400, 300)
	if err != nil {
		t.Fatal(err)
	}
	snap := filepath.Join(t.TempDir(), "hotel.snap")
	if _, err := snapshot.Save(snap, db); err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()

	var out bytes.Buffer
	cmd := daemon(t, &out, "-snapshot", snap, "-addr", addr)
	stopped := false
	defer func() {
		if !stopped {
			_ = cmd.Process.Kill()
			_ = cmd.Wait()
		}
	}()
	base := "http://" + addr
	deadline := time.Now().Add(30 * time.Second)
	for {
		resp, err := http.Get(base + "/healthz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("/healthz status %d", resp.StatusCode)
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("/healthz never answered: %v; output:\n%s", err, &out)
		}
		time.Sleep(50 * time.Millisecond)
	}

	sql := `select * from Entities where "has really clean rooms"`
	resp, err := http.Get(base + "/query?k=3&sql=" + url.QueryEscape(sql))
	if err != nil {
		t.Fatal(err)
	}
	var body struct {
		Rows []json.RawMessage `json:"rows"`
	}
	err = json.NewDecoder(resp.Body).Decode(&body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || err != nil || len(body.Rows) != 3 {
		t.Fatalf("/query: status %d, %d rows, decode error %v", resp.StatusCode, len(body.Rows), err)
	}

	if err := cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	stopped = true
	if code := exitCode(t, cmd, &out); code != 0 {
		t.Fatalf("exit status %d after SIGTERM; output:\n%s", code, &out)
	}
	if !strings.Contains(out.String(), "shut down") {
		t.Errorf("no clean shutdown logged:\n%s", &out)
	}
}
