package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strings"
	"sync"
	"time"

	"github.com/sparql-hsp/hsp"
	"github.com/sparql-hsp/hsp/hspserve"
	"github.com/sparql-hsp/hsp/internal/rdf"
	"github.com/sparql-hsp/hsp/internal/sp2bench"
	"github.com/sparql-hsp/hsp/internal/store"
)

// httpSP2Scale is http-point's SP²Bench size, in triples before scaling.
const httpSP2Scale = 200000

// httpEnv is the set-up http-point workload: an hspserve server with
// default Config over SP²Bench, listening on loopback, and its clients.
type httpEnv struct {
	o       options
	db      *hsp.DB
	srv     *hspserve.Server
	httpSrv *http.Server
	served  chan error
	base    string
	client  *http.Client
	digest  string

	// Filled by reference: the titles a request draws from, each one's
	// expected year, one RNG per client, and the plan-cache counters
	// when the timed loop starts.
	col     *store.Store
	titles  []string
	want    map[string]string
	rngs    []*rand.Rand
	pcStart hsp.PlanCacheStats
}

func setupHTTPPoint(ctx context.Context, o options) (env, error) {
	db := hsp.GenerateSP2Bench(scaled(httpSP2Scale, o), o.seed)
	srv, err := hspserve.New(hspserve.Config{DB: db})
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	e := &httpEnv{
		o: o, db: db, srv: srv,
		httpSrv: &http.Server{Handler: srv},
		served:  make(chan error, 1),
		base:    "http://" + ln.Addr().String(),
		client: &http.Client{Transport: &http.Transport{
			MaxIdleConnsPerHost: 2,
			MaxConnsPerHost:     2,
		}},
	}
	go func() { e.served <- e.httpSrv.Serve(ln) }()
	resp, err := e.client.PostForm(e.base+"/statements", url.Values{"query": {pointQuery}})
	if err != nil {
		e.close()
		return nil, err
	}
	var reg hspserve.RegisterResult
	err = json.NewDecoder(resp.Body).Decode(&reg)
	resp.Body.Close()
	if err != nil {
		e.close()
		return nil, fmt.Errorf("registering the point statement: %w", err)
	}
	e.digest = reg.Digest
	// Warm pass: one request of each kind.
	for _, text := range []bool{true, false} {
		body, _, err := e.get(e.requestURL(text, warmTitle))
		if err == nil {
			err = checkYear(body, warmYear)
		}
		if err != nil {
			e.close()
			return nil, fmt.Errorf("warm pass: %w", err)
		}
	}
	return e, nil
}

// reference reads the titles and their years from a separately
// generated copy of the data.
func (e *httpEnv) reference(ctx context.Context) error {
	e.col = sp2bench.Generate(scaled(httpSP2Scale, e.o), e.o.seed)
	var err error
	if e.titles, e.want, err = titleYears(e.col); err != nil {
		return err
	}
	if !e.o.trace {
		e.col = nil // only the traced pass reads it
	}
	e.rngs = clientRNGs(e.o.seed, 2)
	e.pcStart = e.db.PlanCacheStats()
	return nil
}

// clientRNGs returns one seeded generator per client.
func clientRNGs(seed int64, n int) []*rand.Rand {
	out := make([]*rand.Rand, n)
	for c := range out {
		out[c] = rand.New(rand.NewSource(seed*1000 + int64(c)))
	}
	return out
}

// requestURL is a text request on /sparql or a digest request on
// /statements/{digest} for title.
func (e *httpEnv) requestURL(text bool, title string) string {
	if text {
		return e.base + "/sparql?query=" + url.QueryEscape(pointText(title))
	}
	return e.base + "/statements/" + e.digest + "?title=" + url.QueryEscape(literal(title))
}

// get sends one request and reads the whole body, returning the
// client-observed latency.
func (e *httpEnv) get(u string) ([]byte, time.Duration, error) {
	start := time.Now()
	resp, err := e.client.Get(u)
	if err != nil {
		return nil, 0, err
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	lat := time.Since(start)
	if err != nil {
		return nil, lat, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, lat, fmt.Errorf("status %d: %s", resp.StatusCode, strings.TrimSpace(string(body)))
	}
	return body, lat, nil
}

// checkYear verifies a SPARQL JSON result holds exactly one row whose
// ?yr is want.
func checkYear(body []byte, want string) error {
	var doc struct {
		Results struct {
			Bindings []map[string]struct {
				Value string `json:"value"`
			} `json:"bindings"`
		} `json:"results"`
	}
	if err := json.Unmarshal(body, &doc); err != nil {
		return fmt.Errorf("decoding result: %w", err)
	}
	b := doc.Results.Bindings
	if len(b) != 1 || b[0]["yr"].Value != want {
		return fmt.Errorf("want one row with ?yr %q, got %v", want, b)
	}
	return nil
}

// draw picks client c's next title; even operations are text requests
// and odd ones digest requests.
func (e *httpEnv) draw(c, i int) (title string, text bool) {
	return e.titles[e.rngs[c].Intn(len(e.titles))], i%2 == 0
}

func (e *httpEnv) op(ctx context.Context, c, i int) (string, time.Duration, error) {
	title, text := e.draw(c, i)
	body, lat, err := e.get(e.requestURL(text, title))
	if err == nil {
		err = checkYear(body, e.want[title])
	}
	return "request", lat, err
}

func (e *httpEnv) finish(ctx context.Context) error { return nil }

func (e *httpEnv) traceOps() int { return 2000 }

// traced drives each request four ways, as child spans of the
// operation: through the layer chain over the reference copy of the
// data, through the hsp facade (a text request prepares its text with
// the plan cache; a digest request streams a statement prepared once),
// through Server.ServeHTTP on an in-memory recorder, and over loopback.
// Two clients run at once, as in the timed loop.
func (e *httpEnv) traced(ctx context.Context, tr *tracer, n int) (map[string]metric, error) {
	pcEnd := e.db.PlanCacheStats()
	before := e.srv.Stats()
	// The pass draws its own titles, so its counts depend on the seed
	// alone.
	e.rngs = clientRNGs(e.o.seed+1, 2)
	// The digest path compiles its template once, outside any operation.
	digestChain, err := compileChain(newTracer(), 0, -1, e.col, 0, pointQuery, true)
	if err != nil {
		return nil, err
	}
	stmt, err := e.db.Prepare(ctx, pointQuery, hsp.WithPlanCache(planCacheSize))
	if err != nil {
		return nil, err
	}
	defer stmt.Close()

	type clientTotals struct {
		chain                chainStats
		textHandler, digestH time.Duration
		texts, digests       int
		err                  error
	}
	totals := make([]clientTotals, 2)
	var wg sync.WaitGroup
	for c := 0; c < 2; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			t := &totals[c]
			for i := 0; i*2+c < n; i++ {
				op := i*2 + c
				title, text := e.draw(c, i)
				want := e.want[title]
				root := tr.begin(op, -1, opSpan)
				layers := tr.begin(op, root, layersSpan)
				cc := digestChain
				binds := map[string]rdf.Term{"title": rdf.NewLiteral(title)}
				if text {
					if cc, t.err = compileChain(tr, op, layers, e.col, 0, pointText(title), true); t.err != nil {
						return
					}
					cc.stats.addTo(&t.chain)
					binds = nil
				}
				rows, err := runChain(ctx, tr, op, layers, cc, binds)
				tr.end(layers)
				if t.err = err; err != nil {
					return
				}
				if rows != 1 {
					t.err = fmt.Errorf("layer chain returned %d rows for %q", rows, title)
					return
				}
				jr, err := countJoinRows(ctx, cc, binds)
				if t.err = err; err != nil {
					return
				}
				t.chain.addRun(rows, jr)

				f := tr.begin(op, root, facadeSpan)
				t.err = e.facadeYear(ctx, stmt, text, title, want)
				tr.end(f)
				if t.err != nil {
					return
				}

				u := e.requestURL(text, title)
				h := tr.begin(op, root, spanHandler)
				start := time.Now()
				rec := httptest.NewRecorder()
				e.srv.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, u, nil))
				hd := time.Since(start)
				tr.end(h)
				if rec.Code != http.StatusOK {
					t.err = fmt.Errorf("handler status %d", rec.Code)
					return
				}
				if t.err = checkYear(rec.Body.Bytes(), want); t.err != nil {
					return
				}
				if text {
					t.textHandler += hd
					t.texts++
				} else {
					t.digestH += hd
					t.digests++
				}

				l := tr.begin(op, root, spanLoopback)
				body, _, err := e.get(u)
				tr.end(l)
				tr.end(root)
				if err == nil {
					err = checkYear(body, want)
				}
				if t.err = err; err != nil {
					return
				}
			}
		}(c)
	}
	wg.Wait()
	var total chainStats
	var textH, digestH time.Duration
	var texts, digests int
	for _, t := range totals {
		if t.err != nil {
			return nil, t.err
		}
		t.chain.addTo(&total)
		textH += t.textHandler
		digestH += t.digestH
		texts += t.texts
		digests += t.digests
	}
	after := e.srv.Stats()
	m := chainMetrics(tr, total, true)
	handler := tr.meanDur(spanHandler)
	m["hspserve.handler_us"] = metric{us(handler), "us"}
	m["hspserve.wire_us"] = metric{us(tr.meanDur(spanLoopback) - handler), "us"}
	m["hspserve.text_us"] = metric{us(textH) / float64(max(texts, 1)), "us"}
	m["hspserve.digest_us"] = metric{us(digestH) / float64(max(digests, 1)), "us"}
	m["hspserve.registry_hits"] = metric{float64(after.Registry.Hits - before.Registry.Hits), "count"}
	m["hspserve.rejected"] = metric{float64(before.Admission.Rejected), "count"}
	for k, v := range planCacheMetrics(e.pcStart, pcEnd) {
		m[k] = v
	}
	return m, nil
}

// facadeYear runs one point lookup through the hsp facade: a text
// request prepares its full text with the plan cache, a digest request
// streams the statement prepared once with the title bound.
func (e *httpEnv) facadeYear(ctx context.Context, stmt *hsp.Stmt, text bool, title, want string) error {
	st := stmt
	var binds []hsp.Binding
	if text {
		var err error
		if st, err = e.db.Prepare(ctx, pointText(title), hsp.WithPlanCache(planCacheSize)); err != nil {
			return err
		}
		defer st.Close()
	} else {
		binds = []hsp.Binding{hsp.Bind("title", hsp.Literal(title))}
	}
	return streamYear(ctx, st, binds, want)
}

// streamYear drains a point lookup and checks its one row.
func streamYear(ctx context.Context, st *hsp.Stmt, binds []hsp.Binding, want string) error {
	rows, err := st.Stream(ctx, binds...)
	if err != nil {
		return err
	}
	n := 0
	var got string
	for rows.Next() {
		got = rows.Row()["yr"].Value
		n++
	}
	if err := rows.Close(); err != nil {
		return err
	}
	if n != 1 || got != want {
		return fmt.Errorf("want one row with ?yr %q, got %d rows (last %q)", want, n, got)
	}
	return nil
}

// planCacheMetrics reports the plan cache's hit ratios and
// invalidations between two counter snapshots. An exact-text alias hit
// is a hit that was not a template hit.
func planCacheMetrics(a, b hsp.PlanCacheStats) map[string]metric {
	hits := float64(b.Hits - a.Hits)
	tpl := float64(b.TemplateHits - a.TemplateHits)
	lookups := hits + float64(b.Misses-a.Misses)
	return map[string]metric{
		"exec.plancache.alias_hit_ratio":    {ratio(hits-tpl, lookups), "ratio"},
		"exec.plancache.template_hit_ratio": {ratio(tpl, lookups), "ratio"},
		"exec.plancache.invalidations":      {float64(b.Invalidations - a.Invalidations), "count"},
	}
}

func (e *httpEnv) close() error {
	err := e.httpSrv.Close()
	if serr := <-e.served; serr != nil && !errors.Is(serr, http.ErrServerClosed) && err == nil {
		err = serr
	}
	e.client.CloseIdleConnections()
	return err
}
