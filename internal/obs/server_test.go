package obs

import (
	"io"
	"net/http"
	"strings"
	"testing"
)

func get(t *testing.T, url string) (int, string) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	body, err := io.ReadAll(resp.Body)
	if cerr := resp.Body.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		t.Fatalf("GET %s body: %v", url, err)
	}
	return resp.StatusCode, string(body)
}

func TestServeEndpoints(t *testing.T) {
	r := NewRegistry()
	r.Counter("starcdn_test_total", L("source", "local")).Add(3)
	degraded := false
	s, err := ServeWith("127.0.0.1:0", ServeOptions{Registry: r, Health: func() Health {
		if degraded {
			return Health{OK: false, Live: 1, Down: []string{"42"}}
		}
		return Health{OK: true, Live: 2, Note: "replaying"}
	}})
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if err := s.Close(); err != nil {
			t.Errorf("close: %v", err)
		}
	}()
	base := "http://" + s.Addr()

	if code, body := get(t, base+"/metrics"); code != 200 ||
		!strings.Contains(body, `starcdn_test_total{source="local"} 3`) {
		t.Errorf("/metrics = %d\n%s", code, body)
	}
	if code, body := get(t, base+"/metrics.json"); code != 200 ||
		!strings.Contains(body, `"starcdn_test_total{source=\"local\"}": 3`) {
		t.Errorf("/metrics.json = %d\n%s", code, body)
	}
	if code, body := get(t, base+"/healthz"); code != 200 ||
		!strings.Contains(body, `"ok": true`) && !strings.Contains(body, `"ok":true`) {
		t.Errorf("healthy /healthz = %d\n%s", code, body)
	}
	degraded = true
	if code, body := get(t, base+"/healthz"); code != http.StatusServiceUnavailable ||
		!strings.Contains(body, `"42"`) {
		t.Errorf("degraded /healthz = %d\n%s", code, body)
	}
	if code, body := get(t, base+"/debug/pprof/"); code != 200 ||
		!strings.Contains(body, "goroutine") {
		t.Errorf("/debug/pprof/ = %d", code)
	}
}

// TestServeNilRegistry: profiling must work without metrics.
func TestServeNilRegistry(t *testing.T) {
	s, err := ServeWith("127.0.0.1:0", ServeOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if err := s.Close(); err != nil {
			t.Errorf("close: %v", err)
		}
	}()
	base := "http://" + s.Addr()
	if code, _ := get(t, base+"/metrics"); code != 200 {
		t.Errorf("/metrics with nil registry = %d", code)
	}
	if code, body := get(t, base+"/healthz"); code != 200 || !strings.Contains(body, "true") {
		t.Errorf("nil health func /healthz = %d %s", code, body)
	}
}
