package wire

import (
	"os"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"olgapro/internal/gp"
)

// TestAPIDocConformance pins docs/api.md to the code: every canonical
// route (with its scope), every error code, every Olgapro-* header, the
// query row cap and the request body cap must appear in the document. The
// doc promises this test by name — if you add a route or code, document
// it.
func TestAPIDocConformance(t *testing.T) {
	raw, err := os.ReadFile("../../../docs/api.md")
	if err != nil {
		t.Fatalf("docs/api.md must exist: %v", err)
	}
	doc := string(raw)

	for _, rt := range Routes {
		row := "| " + rt.Method + " | `" + rt.Path + "` | " + string(rt.Scope) + " |"
		if !strings.Contains(doc, row) {
			t.Errorf("route %s %s (scope %s) has no %q row in docs/api.md",
				rt.Method, rt.Path, rt.Scope, row)
		}
	}

	src, err := os.ReadFile("api.go")
	if err != nil {
		t.Fatal(err)
	}
	codes := regexp.MustCompile(`ErrorCode = "([a-z_]+)"`).FindAllStringSubmatch(string(src), -1)
	if len(codes) < 10 {
		t.Fatalf("parsed only %d error codes from api.go; the regexp is stale", len(codes))
	}
	for _, m := range codes {
		if !strings.Contains(doc, "`"+m[1]+"`") {
			t.Errorf("error code %q is not documented in docs/api.md", m[1])
		}
	}

	hdrRe := regexp.MustCompile(`= "(Olgapro-[A-Za-z-]+)"`)
	entries, err := os.ReadDir(".")
	if err != nil {
		t.Fatal(err)
	}
	var headers []string
	for _, e := range entries {
		if !strings.HasSuffix(e.Name(), ".go") || strings.HasSuffix(e.Name(), "_test.go") {
			continue
		}
		b, err := os.ReadFile(e.Name())
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range hdrRe.FindAllStringSubmatch(string(b), -1) {
			headers = append(headers, m[1])
		}
	}
	if len(headers) == 0 {
		t.Fatal("parsed no Olgapro-* headers from the wire package; the regexp is stale")
	}
	for _, h := range headers {
		if !strings.Contains(doc, "`"+h+"`") {
			t.Errorf("header %q is not documented in docs/api.md", h)
		}
	}

	if !strings.Contains(doc, strconv.Itoa(MaxQueryRows)) {
		t.Errorf("the %d-row query cap is not documented in docs/api.md", MaxQueryRows)
	}
	if !strings.Contains(doc, "`wire.MaxRequestBytes`, "+strconv.Itoa(MaxRequestBytes)+" bytes") {
		t.Errorf("the %d-byte request body cap is not documented in docs/api.md", MaxRequestBytes)
	}
	if !strings.Contains(doc, strconv.Itoa(gp.MaxSparseBudget)+"] (`gp.MaxSparseBudget`)") {
		t.Errorf("the sparse budget cap %d is not documented in docs/api.md", gp.MaxSparseBudget)
	}
}

// TestRoutesTableWellFormed guards the canonical table itself: no
// duplicate method+path pairs, every path versioned under /v1, and a
// known scope on every entry.
func TestRoutesTableWellFormed(t *testing.T) {
	seen := map[string]bool{}
	for _, rt := range Routes {
		key := rt.Method + " " + rt.Path
		if seen[key] {
			t.Errorf("duplicate route %s", key)
		}
		seen[key] = true
		if !strings.HasPrefix(rt.Path, "/"+APIVersion+"/") {
			t.Errorf("route %s is not under /%s", key, APIVersion)
		}
		switch rt.Scope {
		case ScopeBoth, ScopeShard, ScopeRouter:
		default:
			t.Errorf("route %s has unknown scope %q", key, rt.Scope)
		}
	}
}
