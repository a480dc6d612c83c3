package httpapi

import (
	"fmt"
	"io"
	"net/http"
	"strings"
)

// Exposition renders the Prometheus text exposition format (version
// 0.0.4) for a replica's and the router's /metrics. The stdlib-only
// constraint rules out the client library, and the format is a HELP and a
// TYPE line per family followed by its samples.
type Exposition struct{ b strings.Builder }

// Metric writes an unlabelled family with its one sample.
func (e *Exposition) Metric(name, help, typ string, v float64) {
	e.Family(name, help, typ)
	fmt.Fprintf(&e.b, "%s %g\n", name, v)
}

// Family writes the HELP and TYPE lines that open a labelled family; its
// samples follow through Sample.
func (e *Exposition) Family(name, help, typ string) {
	fmt.Fprintf(&e.b, "# HELP %s %s\n# TYPE %s %s\n", name, help, name, typ)
}

// Sample writes one sample labelled {label="value"}. v prints with %v: %g
// for a float64, a plain integer for an int.
func (e *Exposition) Sample(name, label, value string, v any) {
	fmt.Fprintf(&e.b, "%s{%s=%q} %v\n", name, label, value, v)
}

// Serve writes the exposition as the reply, with its content type.
func (e *Exposition) Serve(w http.ResponseWriter) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	_, _ = io.WriteString(w, e.b.String())
}
