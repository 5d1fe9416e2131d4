package main

import (
	"fmt"
	"sort"
	"strings"

	"github.com/sparql-hsp/hsp/internal/rdf"
	"github.com/sparql-hsp/hsp/internal/sp2bench"
	"github.com/sparql-hsp/hsp/internal/store"
)

// pointQuery is the one-row lookup of http-point and of commit-mix's
// reads: a document's year of issue by its title. Its $title
// placeholder is bound per execution, or inlined by pointText.
const pointQuery = `
PREFIX dc:      <http://purl.org/dc/elements/1.1/>
PREFIX dcterms: <http://purl.org/dc/terms/>
SELECT ?yr
WHERE { ?doc dc:title $title .
        ?doc dcterms:issued ?yr . }`

// planCacheSize is the plan cache capacity of the facade's point
// lookups, hspserve's default.
const planCacheSize = 1024

// The warm passes look up the journal SP1 names, which every generated
// SP²Bench dataset holds: journal 0's title and year.
const (
	warmTitle = "Journal 1 (1940)"
	warmYear  = "1940"
)

// pointText inlines a title into the point query, as a client sending
// full query text does.
func pointText(title string) string {
	return strings.Replace(pointQuery, "$title", literal(title), 1)
}

// literal renders a title as a SPARQL literal.
func literal(s string) string { return `"` + s + `"` }

// titleYears reads, straight from the generated triples and without
// the query engine, every title that names exactly one document with
// exactly one year of issue, and that year. These are the point
// lookups' inputs and expected answers; titles come back sorted, so a
// seeded draw over them is reproducible.
func titleYears(col *store.Store) ([]string, map[string]string, error) {
	d := col.Dict()
	titleP, ok1 := d.Lookup(rdf.NewIRI(sp2bench.PredTitle))
	issuedP, ok2 := d.Lookup(rdf.NewIRI(sp2bench.PredIssued))
	if !ok1 || !ok2 {
		return nil, nil, fmt.Errorf("dataset has no dc:title or dcterms:issued")
	}
	docsByTitle := map[string]int{}
	years := map[string][]string{} // by subject term value
	subjTitle := map[string]string{}
	for _, t := range col.Rel(store.SPO) {
		switch t[1] {
		case titleP:
			s, o := d.Term(t[0]), d.Term(t[2])
			if o.Kind != rdf.Literal {
				continue
			}
			docsByTitle[o.Value]++
			subjTitle[s.String()] = o.Value
		case issuedP:
			s := d.Term(t[0]).String()
			years[s] = append(years[s], d.Term(t[2]).Value)
		}
	}
	want := map[string]string{}
	for subj, title := range subjTitle {
		if docsByTitle[title] == 1 && len(years[subj]) == 1 {
			want[title] = years[subj][0]
		}
	}
	titles := make([]string, 0, len(want))
	for t := range want {
		if strings.ContainsAny(t, "\"\\\n") {
			delete(want, t) // keep the literal syntax trivial
			continue
		}
		titles = append(titles, t)
	}
	sort.Strings(titles)
	if len(titles) == 0 {
		return nil, nil, fmt.Errorf("dataset has no uniquely titled document")
	}
	return titles, want, nil
}
