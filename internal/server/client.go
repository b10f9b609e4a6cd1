package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
)

// Client implements the paper's client-side configuration: it downloads the
// representative payload once, runs the entire relevance-feedback loop
// locally (candidate display, marking, query decomposition descent), and
// contacts the server exactly once per query — to run the final localized
// k-NN subqueries (§4). This is the property the paper credits for the
// technique's scalability to "a very large user community".
type Client struct {
	base    string
	hc      *http.Client
	payload *Payload

	// navigation indexes derived from the payload
	parent map[*PayloadNode]*PayloadNode
	leafOf map[int]*PayloadNode
}

// Dial fetches the server's payload and prepares a client. httpClient may be
// nil (http.DefaultClient).
func Dial(baseURL string, httpClient *http.Client) (*Client, error) {
	return DialContext(context.Background(), baseURL, httpClient)
}

// DialContext is Dial with cancellation of the payload download.
func DialContext(ctx context.Context, baseURL string, httpClient *http.Client) (*Client, error) {
	if httpClient == nil {
		httpClient = http.DefaultClient
	}
	c := &Client{base: baseURL, hc: httpClient}
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, baseURL+"/v1/payload", nil)
	if err != nil {
		return nil, fmt.Errorf("server: fetch payload: %w", err)
	}
	resp, err := httpClient.Do(req)
	if err != nil {
		return nil, fmt.Errorf("server: fetch payload: %w", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, decodeError(resp)
	}
	var p Payload
	if err := json.NewDecoder(resp.Body).Decode(&p); err != nil {
		return nil, fmt.Errorf("server: decode payload: %w", err)
	}
	if err := p.Validate(); err != nil {
		return nil, err
	}
	c.payload = &p
	c.index()
	return c, nil
}

func (c *Client) index() {
	c.parent = make(map[*PayloadNode]*PayloadNode)
	c.leafOf = make(map[int]*PayloadNode)
	var walk func(n *PayloadNode)
	walk = func(n *PayloadNode) {
		if len(n.Children) == 0 {
			for _, id := range n.Reps {
				c.leafOf[id] = n
			}
			return
		}
		for _, ch := range n.Children {
			c.parent[ch] = n
			walk(ch)
		}
	}
	walk(c.payload.Root)
}

// Images returns the size of the served database.
func (c *Client) Images() int { return c.payload.Images }

// RepCount returns the number of representatives in the local payload.
func (c *Client) RepCount() int { return c.payload.RepCount() }

// Label returns a representative's display label.
func (c *Client) Label(id int) string { return c.payload.Labels[id] }

// childContaining returns the child of n whose subtree holds the
// representative, using the leaf index (every representative appears in its
// leaf's list, so walking up from the leaf finds the branch).
func (c *Client) childContaining(n *PayloadNode, id int) *PayloadNode {
	leaf, ok := c.leafOf[id]
	if !ok {
		return nil
	}
	for cur := leaf; cur != nil; cur = c.parent[cur] {
		if c.parent[cur] == n {
			return cur
		}
	}
	return nil
}

// ClientSession is a feedback session executed entirely on the client; it
// mirrors the core.Session protocol over the representative payload.
type ClientSession struct {
	c   *Client
	rng *rand.Rand

	frontier  []*PayloadNode
	assign    map[int]*PayloadNode
	relevant  []int
	relSet    map[int]bool
	displayed map[int]*PayloadNode
	cursors   map[*PayloadNode]*clientCursor
	display   int
	finalized bool
}

type clientCursor struct {
	order []int
	pos   int
}

// NewSession starts a local feedback session. displayCount is the images per
// display (21 in the prototype; 0 uses that default).
func (c *Client) NewSession(seed int64, displayCount int) *ClientSession {
	if displayCount <= 0 {
		displayCount = 21
	}
	return &ClientSession{
		c:         c,
		rng:       rand.New(rand.NewSource(seed)),
		frontier:  []*PayloadNode{c.payload.Root},
		assign:    make(map[int]*PayloadNode),
		relSet:    make(map[int]bool),
		displayed: make(map[int]*PayloadNode),
		cursors:   make(map[*PayloadNode]*clientCursor),
		display:   displayCount,
	}
}

// Candidates returns the next display of representatives — computed locally,
// no server round trip. A finalized session displays nothing.
func (s *ClientSession) Candidates() []CandidateJSON {
	if s.finalized {
		return nil
	}
	total := 0
	for _, n := range s.frontier {
		total += len(n.Reps)
	}
	if total == 0 {
		return nil
	}
	var out []CandidateJSON
	if total <= s.display {
		for _, n := range s.frontier {
			for _, id := range n.Reps {
				out = append(out, CandidateJSON{ID: id, Label: s.c.Label(id)})
				s.displayed[id] = n
			}
		}
		return out
	}
	remaining := s.display
	for i, n := range s.frontier {
		share := s.display * len(n.Reps) / total
		if share < 1 {
			share = 1
		}
		if i == len(s.frontier)-1 {
			share = remaining
		}
		if share > len(n.Reps) {
			share = len(n.Reps)
		}
		if share > remaining {
			share = remaining
		}
		for _, id := range s.take(n, share) {
			out = append(out, CandidateJSON{ID: id, Label: s.c.Label(id)})
			s.displayed[id] = n
		}
		remaining -= share
		if remaining <= 0 {
			break
		}
	}
	return out
}

// take pages through a node's representatives without repetition, like the
// server-side session's display cursor.
func (s *ClientSession) take(n *PayloadNode, count int) []int {
	cur, ok := s.cursors[n]
	if !ok {
		cur = &clientCursor{order: append([]int(nil), n.Reps...)}
		s.rng.Shuffle(len(cur.order), func(i, j int) { cur.order[i], cur.order[j] = cur.order[j], cur.order[i] })
		s.cursors[n] = cur
	}
	out := make([]int, 0, count)
	for len(out) < count {
		if cur.pos >= len(cur.order) {
			s.rng.Shuffle(len(cur.order), func(i, j int) { cur.order[i], cur.order[j] = cur.order[j], cur.order[i] })
			cur.pos = 0
		}
		out = append(out, cur.order[cur.pos])
		cur.pos++
		if len(out) >= len(cur.order) {
			break
		}
	}
	return out
}

// Feedback processes one round of marks locally: new marks join the query
// panel at the child of the displaying cluster; the whole panel then descends
// one level toward its leaves, mirroring core.Session.
func (s *ClientSession) Feedback(marked []int) error {
	if s.finalized {
		return fmt.Errorf("server: session finalized")
	}
	for _, id := range marked {
		node, ok := s.displayed[id]
		if !ok {
			return fmt.Errorf("server: image %d was not displayed", id)
		}
		if !s.relSet[id] {
			s.relSet[id] = true
			s.relevant = append(s.relevant, id)
		}
		child := s.childContainingOrSelf(node, id)
		if cur, ok := s.assign[id]; !ok || s.depth(child) > s.depth(cur) {
			s.assign[id] = child
		}
	}
	for _, id := range s.relevant {
		n := s.assign[id]
		if n == nil || len(n.Children) == 0 {
			continue
		}
		if child := s.c.childContaining(n, id); child != nil {
			s.assign[id] = child
		}
	}
	s.rebuildFrontier()
	return nil
}

func (s *ClientSession) childContainingOrSelf(n *PayloadNode, id int) *PayloadNode {
	if len(n.Children) == 0 {
		return n
	}
	if child := s.c.childContaining(n, id); child != nil {
		return child
	}
	return n
}

func (s *ClientSession) depth(n *PayloadNode) int {
	d := 0
	for cur := n; cur != nil; cur = s.c.parent[cur] {
		d++
	}
	return d
}

func (s *ClientSession) rebuildFrontier() {
	if len(s.assign) == 0 {
		s.frontier = []*PayloadNode{s.c.payload.Root}
		return
	}
	seen := make(map[*PayloadNode]bool)
	s.frontier = s.frontier[:0]
	for _, id := range s.relevant {
		if n := s.assign[id]; n != nil && !seen[n] {
			seen[n] = true
			s.frontier = append(s.frontier, n)
		}
	}
}

// Relevant returns the query panel.
func (s *ClientSession) Relevant() []int { return s.relevant }

// Subqueries returns the current decomposition width.
func (s *ClientSession) Subqueries() int { return len(s.frontier) }

// Finalize submits the final query images to the server — the session's only
// server round trip — and returns the merged localized k-NN results.
func (s *ClientSession) Finalize(k int) (*QueryResponse, error) {
	return s.FinalizeContext(context.Background(), k)
}

// FinalizeContext is Finalize with cancellation: the context covers the whole
// round trip, so a slow server-side query can be abandoned. As with
// core.Panel.Finalize, an invalid k or an empty panel is rejected without
// consuming the session; once the query is sent, the session counts as
// finalized even if the round trip fails.
func (s *ClientSession) FinalizeContext(ctx context.Context, k int) (*QueryResponse, error) {
	if s.finalized {
		return nil, fmt.Errorf("server: session finalized")
	}
	if k <= 0 {
		return nil, fmt.Errorf("server: invalid k=%d", k)
	}
	if len(s.relevant) == 0 {
		return nil, fmt.Errorf("server: no relevant feedback given")
	}
	s.finalized = true
	body, err := json.Marshal(QueryRequest{Relevant: s.relevant, K: k})
	if err != nil {
		return nil, err
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, s.c.base+"/v1/query", bytes.NewReader(body))
	if err != nil {
		return nil, fmt.Errorf("server: query: %w", err)
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := s.c.hc.Do(req)
	if err != nil {
		return nil, fmt.Errorf("server: query: %w", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, decodeError(resp)
	}
	var out QueryResponse
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		return nil, fmt.Errorf("server: decode result: %w", err)
	}
	return &out, nil
}

// decodeError converts a non-200 response into an error.
func decodeError(resp *http.Response) error {
	var e errorResponse
	data, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
	if json.Unmarshal(data, &e) == nil && e.Error != "" {
		return fmt.Errorf("server: %s (HTTP %d)", e.Error, resp.StatusCode)
	}
	return fmt.Errorf("server: HTTP %d: %s", resp.StatusCode, bytes.TrimSpace(data))
}
