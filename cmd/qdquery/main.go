// Command qdquery is a terminal stand-in for the prototype's Presentation
// Manager (§4, the ImageGrouper GUI): it runs an interactive relevance-
// feedback session against a database built by qdbuild (or a small corpus
// built on the fly), displaying representative images as their ground-truth
// labels.
//
// Usage:
//
//	qdquery                 # build a small corpus in-memory and query it
//	qdquery -db db.gob      # query a database persisted by qdbuild
//
// Session commands:
//
//	r               reshuffle the candidate display (the GUI's "Random")
//	m 3 17 42       mark the listed display positions as relevant
//	u 3             retract an earlier mark by display position
//	w color 2.5     weight a feature family (color|texture|edge) in the final k-NN
//	f               submit the round's marks as relevance feedback
//	done [k]        finalize: run the localized k-NN subqueries and show results
//	auto <query>    let a simulated user run the whole session for a named query
//	queries         list the paper's evaluation queries
//	q               quit
package main

import (
	"bufio"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"os"
	"strconv"
	"strings"

	"qdcbir"
	"qdcbir/internal/core"
	"qdcbir/internal/dataset"
	"qdcbir/internal/feature"
	"qdcbir/internal/obs"
	"qdcbir/internal/rfs"
	"qdcbir/internal/rstar"
	"qdcbir/internal/user"
	"qdcbir/internal/vec"
)

type db struct {
	infos  []dataset.Info
	rfs    *rfs.Structure
	engine *core.Engine
}

func (d *db) subconceptOf(id int) string {
	if id < 0 || id >= len(d.infos) {
		return ""
	}
	return d.infos[id].Subconcept
}

func main() {
	var (
		path     = flag.String("db", "", "database file written by qdbuild (empty = build small corpus)")
		seed     = flag.Int64("seed", 1, "session seed")
		parallel = flag.Int("parallelism", 0, "worker count for build and finalize pools (0 = one per CPU)")
		traceOut = flag.String("trace-out", "", "on exit, write the session's traces as Perfetto trace-event JSON to this path (open at ui.perfetto.dev)")
		quantize = flag.Bool("quantized", false, "in-memory builds: run k-NN phases through the SQ8 two-phase scan (results are identical); archives carry their own scan mode")
	)
	flag.Parse()

	var observer *obs.Observer
	if *traceOut != "" {
		observer = obs.New(obs.NewRegistry())
	}
	d, err := open(*path, *seed, *parallel, *quantize, observer)
	if err != nil {
		fmt.Fprintln(os.Stderr, "qdquery:", err)
		os.Exit(1)
	}
	fmt.Printf("database: %d images, tree height %d, %d representatives\n",
		len(d.infos), d.rfs.Tree().Height(), d.rfs.RepCount())

	repl(d, rand.New(rand.NewSource(*seed)), os.Stdin, os.Stdout)

	if *traceOut != "" {
		if err := writeTraces(*traceOut, observer); err != nil {
			fmt.Fprintln(os.Stderr, "qdquery: trace-out:", err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "wrote %d trace(s) to %s\n", len(observer.Traces()), *traceOut)
	}
}

// writeTraces dumps every retained trace as a Perfetto-loadable trace-event
// file ('-' = stdout).
func writeTraces(path string, o *obs.Observer) error {
	if path == "-" {
		return obs.WritePerfetto(os.Stdout, o.Traces())
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := obs.WritePerfetto(f, o.Traces()); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// open loads the archive at path, or builds a small corpus in process when
// path is empty. quantize applies to the in-process build only: archives
// carry their own configuration (dimension, precision, quantizer).
func open(path string, seed int64, parallelism int, quantize bool, observer *obs.Observer) (*db, error) {
	if path != "" {
		sys, err := qdcbir.LoadFile(path)
		if err != nil {
			return nil, fmt.Errorf("decode %s: %w", path, err)
		}
		if observer != nil {
			sys = sys.WithObserver(observer)
		}
		return &db{infos: sys.Corpus().Infos, rfs: sys.RFS(), engine: sys.Engine()}, nil
	}
	fmt.Fprintln(os.Stderr, "no -db given; building a small in-memory corpus...")
	spec := dataset.SmallSpec(seed, 25, 1200)
	corpus := dataset.Build(spec, dataset.Options{Seed: seed + 1, Parallelism: parallelism})
	structure := rfs.Build(corpus.Vectors, rfs.BuildConfig{
		RepFraction: 0.2,
		Tree:        rstar.Config{MaxFill: 24},
		TargetFill:  20,
		Seed:        seed + 2,
		Parallelism: parallelism,
	})
	return &db{
		infos:  corpus.Infos,
		rfs:    structure,
		engine: core.NewEngine(structure, core.Config{Parallelism: parallelism, Observer: observer, Quantized: quantize}),
	}, nil
}

func repl(d *db, rng *rand.Rand, in io.Reader, out io.Writer) {
	sess := d.engine.NewSession(rng)
	display := sess.Candidates()
	show(out, display, d)
	var pending []rstar.ItemID
	var weights vec.Vector

	sc := bufio.NewScanner(in)
	fmt.Fprint(out, "> ")
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) == 0 {
			fmt.Fprint(out, "> ")
			continue
		}
		switch fields[0] {
		case "q", "quit", "exit":
			return
		case "r":
			display = sess.Candidates()
			show(out, display, d)
		case "m":
			for _, f := range fields[1:] {
				pos, err := strconv.Atoi(f)
				if err != nil || pos < 0 || pos >= len(display) {
					fmt.Fprintf(out, "bad position %q\n", f)
					continue
				}
				pending = append(pending, display[pos].ID)
				fmt.Fprintf(out, "marked #%d (%s)\n", pos, d.subconceptOf(int(display[pos].ID)))
			}
		case "u":
			for _, f := range fields[1:] {
				pos, err := strconv.Atoi(f)
				if err != nil || pos < 0 || pos >= len(display) {
					fmt.Fprintf(out, "bad position %q\n", f)
					continue
				}
				id := display[pos].ID
				// Drop from this round's pending marks and from the panel.
				kept := pending[:0]
				for _, p := range pending {
					if p != id {
						kept = append(kept, p)
					}
				}
				pending = kept
				sess.Retract([]rstar.ItemID{id})
				fmt.Fprintf(out, "retracted #%d (%s)\n", pos, d.subconceptOf(int(id)))
			}
		case "w":
			if len(fields) != 3 {
				fmt.Fprintln(out, "usage: w color|texture|edge <multiplier>")
				break
			}
			mult, err := strconv.ParseFloat(fields[2], 64)
			if err != nil || mult < 0 {
				fmt.Fprintf(out, "bad multiplier %q\n", fields[2])
				break
			}
			fam, ok := parseFamily(fields[1])
			if !ok {
				fmt.Fprintf(out, "unknown family %q\n", fields[1])
				break
			}
			if weights == nil {
				weights = make(vec.Vector, feature.Dim)
				for i := range weights {
					weights[i] = 1
				}
			}
			lo, hi := fam.Range()
			for i := lo; i < hi; i++ {
				weights[i] *= mult
			}
			if err := sess.SetFeatureWeights(weights); err != nil {
				fmt.Fprintln(out, "weights:", err)
			} else {
				fmt.Fprintf(out, "%s weighted x%.2f\n", fields[1], mult)
			}
		case "f":
			if err := sess.Feedback(pending); err != nil {
				fmt.Fprintln(out, "feedback:", err)
			} else {
				fmt.Fprintf(out, "round committed: %d marks, %d active subqueries\n",
					len(pending), len(sess.Frontier()))
				pending = nil
				display = sess.Candidates()
				show(out, display, d)
			}
		case "done":
			k := 24
			if len(fields) > 1 {
				if n, err := strconv.Atoi(fields[1]); err == nil && n > 0 {
					k = n
				}
			}
			if len(pending) > 0 {
				if err := sess.Feedback(pending); err != nil {
					fmt.Fprintln(out, "feedback:", err)
				}
				pending = nil
			}
			res, err := sess.Finalize(k)
			if err != nil {
				fmt.Fprintln(out, "finalize:", err)
				fmt.Fprint(out, "> ")
				continue
			}
			printResult(out, res, d)
			return
		case "auto":
			name := strings.Join(fields[1:], " ")
			if err := autoSession(out, d, name, rng); err != nil {
				fmt.Fprintln(out, "auto:", err)
			}
			return
		case "queries":
			for _, q := range dataset.PaperQueries() {
				fmt.Fprintf(out, "  %-22s -> %s\n", q.Name, strings.Join(q.Targets, ", "))
			}
		default:
			fmt.Fprintln(out, "commands: r | m <pos...> | u <pos...> | w <family> <mult> | f | done [k] | auto <query> | queries | q")
		}
		fmt.Fprint(out, "> ")
	}
}

// parseFamily maps a command token to a feature family.
func parseFamily(name string) (feature.Family, bool) {
	switch name {
	case "color":
		return feature.FamilyColor, true
	case "texture":
		return feature.FamilyTexture, true
	case "edge":
		return feature.FamilyEdge, true
	default:
		return 0, false
	}
}

func show(out io.Writer, cands []core.Candidate, d *db) {
	fmt.Fprintf(out, "--- %d candidate representatives ---\n", len(cands))
	for i, c := range cands {
		fmt.Fprintf(out, "  [%2d] image %-6d %s\n", i, c.ID, d.subconceptOf(int(c.ID)))
	}
}

func printResult(out io.Writer, res *core.Result, d *db) {
	fmt.Fprintf(out, "=== %d result groups ===\n", len(res.Groups))
	for gi, g := range res.Groups {
		fmt.Fprintf(out, "group %d (rank score %.3f, %d query images):\n", gi+1, g.RankScore, len(g.QueryIDs))
		for _, im := range g.Images {
			fmt.Fprintf(out, "    image %-6d score %.3f  %s\n", im.ID, im.Score, d.subconceptOf(int(im.ID)))
		}
	}
}

// autoSession lets the ground-truth simulator drive the whole protocol for a
// named paper query — a scripted demo of the full loop.
func autoSession(out io.Writer, d *db, name string, rng *rand.Rand) error {
	var query dataset.Query
	for _, q := range dataset.PaperQueries() {
		if strings.EqualFold(q.Name, name) {
			query = q
			break
		}
	}
	if query.Name == "" {
		return fmt.Errorf("unknown query %q (try 'queries')", name)
	}
	sim := user.New(query.Targets, d.subconceptOf, rng)
	sess := d.engine.NewSession(rng)
	relCount := 0
	for round := 0; round < 3; round++ {
		var shown []int
		for disp := 0; disp < 15; disp++ {
			for _, c := range sess.Candidates() {
				shown = append(shown, int(c.ID))
			}
		}
		sim.MaxPerRound = 8
		var marks []rstar.ItemID
		for _, id := range sim.SelectDiverse(shown) {
			marks = append(marks, rstar.ItemID(id))
		}
		if err := sess.Feedback(marks); err != nil {
			return err
		}
		relCount += len(marks)
		fmt.Fprintf(out, "round %d: marked %d, %d active subqueries\n",
			round+1, len(marks), len(sess.Frontier()))
	}
	if relCount == 0 {
		return fmt.Errorf("simulated user found nothing relevant")
	}
	res, err := sess.Finalize(24)
	if err != nil {
		return err
	}
	printResult(out, res, d)
	return nil
}
