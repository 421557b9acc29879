package server

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"testing"
	"time"

	"olgapro/internal/server/wire"
)

// TestStreamTokensReleasedOnFailure: a learn or frozen stream that ends in
// an error — a malformed third line, a third line of the wrong arity, or a
// ?timeout_ms deadline that fires while the third line is awaited — answers
// its two good lines and a terminal error line, and leaves the server
// holding no admission token.
func TestStreamTokensReleasedOnFailure(t *testing.T) {
	const timeoutMS = 1000
	s, ts := newTestServer(t, Config{MaxInFlight: 4, Workers: 2})
	name := registerSmooth(t, ts.URL)
	e, _ := s.reg.Get(name)
	var good bytes.Buffer
	for _, in := range testInputs(2) {
		b, _ := json.Marshal(streamLine{Input: in})
		good.Write(append(b, '\n'))
	}
	endings := []struct {
		label, third string
		code         wire.ErrorCode
	}{
		{"malformed", "this is not json\n", wire.CodeBadSpec},
		{"wrong arity", `{"input":[{"type":"normal","mu":0.5,"sigma":0.1}]}` + "\n", wire.CodeBadSpec},
		{"deadline", "", wire.CodeDeadlineExceeded},
	}
	firstLine := good.Bytes()[:bytes.IndexByte(good.Bytes(), '\n')+1]
	for _, mode := range []string{"learn=true", "learn=false"} {
		for _, end := range endings {
			label := mode + "/" + end.label
			url := fmt.Sprintf("%s/v1/udfs/%s/stream?%s&seed=3&timeout_ms=%d", ts.URL, name, mode, timeoutMS)
			third := []byte(end.third)
			if end.third == "" {
				third = firstLine
			}
			// The body goes out as the test writes it, under a declared
			// length, so the server sees its end with the last line.
			pr, pw := io.Pipe()
			req, err := http.NewRequest(http.MethodPost, url, pr)
			if err != nil {
				t.Fatal(err)
			}
			req.ContentLength = int64(good.Len() + len(third))
			type answer struct {
				raw []byte
				err error
			}
			done := make(chan answer, 1)
			start := time.Now()
			go func() {
				resp, err := http.DefaultClient.Do(req)
				if err != nil {
					done <- answer{err: err}
					return
				}
				raw, err := io.ReadAll(resp.Body)
				resp.Body.Close()
				done <- answer{raw, err}
			}()
			served := e.served.Load()
			pw.Write(good.Bytes())
			if end.third == "" {
				// Both good lines are answered, then the deadline passes
				// while the server waits for the third.
				for e.served.Load() < served+2 {
					if time.Since(start) > 10*time.Second {
						t.Fatalf("%s: the two good lines were not served", label)
					}
					time.Sleep(time.Millisecond)
				}
				time.Sleep(time.Until(start.Add(timeoutMS*time.Millisecond + 100*time.Millisecond)))
			}
			pw.Write(third)
			pw.Close()
			a := <-done
			if a.err != nil {
				t.Fatalf("%s: %v", label, a.err)
			}
			var lines []streamResult
			sc := bufio.NewScanner(bytes.NewReader(a.raw))
			for sc.Scan() {
				var r streamResult
				if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
					t.Fatalf("%s: bad line %q: %v", label, sc.Text(), err)
				}
				lines = append(lines, r)
			}
			if len(lines) != 3 || lines[0].Error != "" || lines[1].Error != "" ||
				lines[2].Seq != 2 || lines[2].ErrorCode != end.code {
				t.Fatalf("%s: answer %s, want two results and a terminal %s line at seq 2", label, a.raw, end.code)
			}
			for deadline := time.Now().Add(time.Second); len(s.inflight) != 0; {
				if time.Now().After(deadline) {
					t.Fatalf("%s: %d admission tokens held after the response ended", label, len(s.inflight))
				}
				time.Sleep(time.Millisecond)
			}
		}
	}
}
