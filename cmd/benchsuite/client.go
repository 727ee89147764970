package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"time"
)

// reply is what the runner needs from an answer while the clock runs:
// the HTTP status (the in-process stack synthesises the status its handler
// would have sent; 0 is a transport error) and the session id a setup
// returned. body is the raw answer, valid until the executor's next exec
// (nil from the in-process stack, whose answers are not verified).
type reply struct {
	status int
	sess   int
	body   []byte
	// rootNs is the in-process root span of the op (0 over HTTP).
	rootNs int64
}

func (r reply) ok() bool { return r.status == http.StatusOK || r.status == http.StatusCreated }

// executor performs one op. sess is the session a teardown releases. Both
// the HTTP client and the traced in-process stack implement it, so set-up,
// cycle rules and replay are one code path.
type executor interface {
	exec(o op, sess int) reply
}

// result is one executed op of a client, in stream order. Bodies are kept
// raw so that decoding and verification happen off the clock.
type result struct {
	op     op
	sess   int // session id the op released or returned
	status int // 0 transport error, -1 skipped by the cycle rule
	latNs  int64
	rootNs int64
	body   []byte
}

const statusSkipped = -1

// httpClient is one broker client: one keep-alive connection.
type httpClient struct {
	base string
	hc   *http.Client
	buf  bytes.Buffer
	// last is the body of the most recent reply; valid until the next do.
	last []byte
}

func newHTTPClient(base string) *httpClient {
	tr := &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, IdleConnTimeout: time.Minute}
	return &httpClient{base: base, hc: &http.Client{Transport: tr, Timeout: 30 * time.Second}}
}

func (c *httpClient) close() { c.hc.CloseIdleConnections() }

func pairQuery(o op) string {
	return "?src=" + strconv.Itoa(int(o.src)) + "&dst=" + strconv.Itoa(int(o.dst))
}

func sessionBody(o op) io.Reader {
	return strings.NewReader(fmt.Sprintf(`{"src":%d,"dst":%d,"gbps":%g}`, o.src, o.dst, sessionGbps))
}

func (c *httpClient) exec(o op, sess int) reply {
	var (
		method = http.MethodGet
		url    string
		body   io.Reader
	)
	switch o.kind {
	case opPath:
		url = "/path" + pairQuery(o)
	case opFedPath:
		url = "/federation/path" + pairQuery(o)
	case opSetup:
		method, url, body = http.MethodPost, "/sessions", sessionBody(o)
	case opFedSetup:
		method, url, body = http.MethodPost, "/federation/sessions", sessionBody(o)
	case opTeardown:
		method, url = http.MethodDelete, "/sessions/"+strconv.Itoa(sess)
	case opFedTeardown:
		method, url = http.MethodDelete, "/federation/sessions/"+strconv.Itoa(sess)
	case opChurn:
		method, url, body = http.MethodPost, "/churn", strings.NewReader(fmt.Sprintf(`{"generate":%d}`, churnPerPost))
	}
	status, err := c.do(method, url, body)
	if err != nil {
		return reply{}
	}
	r := reply{status: status, body: c.last}
	if (o.kind == opSetup || o.kind == opFedSetup) && status == http.StatusCreated {
		var s struct {
			ID int `json:"id"`
		}
		if json.Unmarshal(c.last, &s) == nil {
			r.sess = s.ID
		}
	}
	return r
}

// do sends one request and leaves the body in c.last.
func (c *httpClient) do(method, url string, body io.Reader) (int, error) {
	c.last = nil
	req, err := http.NewRequest(method, c.base+url, body)
	if err != nil {
		return 0, err
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return 0, err
	}
	c.buf.Reset()
	_, err = c.buf.ReadFrom(resp.Body)
	resp.Body.Close()
	if err != nil {
		return 0, err
	}
	c.last = c.buf.Bytes()
	return resp.StatusCode, nil
}

// getJSON fetches url and decodes a 200 reply into v.
func (c *httpClient) getJSON(url string, v any) error {
	status, err := c.do(http.MethodGet, url, nil)
	if err != nil {
		return err
	}
	if status != http.StatusOK {
		return fmt.Errorf("GET %s: status %d: %s", url, status, c.last)
	}
	return json.Unmarshal(c.last, v)
}

// cycle is one client's position in its request cycle: the session its
// last setup returned and whether the cycle's path read found a route.
type cycle struct {
	sess    int
	noRoute bool
}

// step performs the client's next op, or skips it by the cycle rules: a
// federated setup is skipped when the cycle's path read found no route, a
// teardown when there is no session to release. The HTTP run and the
// in-process replay both come through here, so the rules are the same.
func (c *cycle) step(ex executor, o op) result {
	res := result{op: o, sess: c.sess}
	if (o.kind == opTeardown || o.kind == opFedTeardown) && c.sess == 0 ||
		o.kind == opFedSetup && c.noRoute {
		res.status = statusSkipped
		return res
	}
	start := time.Now()
	r := ex.exec(o, c.sess)
	res.latNs = int64(time.Since(start))
	res.status, res.rootNs = r.status, r.rootNs
	if r.body != nil {
		res.body = append([]byte(nil), r.body...)
	}
	switch o.kind {
	case opFedPath:
		c.noRoute = !r.ok()
	case opSetup, opFedSetup:
		c.sess, res.sess = r.sess, r.sess
	case opTeardown, opFedTeardown:
		c.sess = 0
	}
	return res
}

// runClient drives one closed-loop client over its stream: the next op
// goes out only after the previous reply. Past the deadline (zero: none) it
// stops sending and returns what it has.
func runClient(ex executor, next func() (op, bool), deadline time.Time) []result {
	var c cycle
	var out []result
	for {
		o, more := next()
		if !more || !deadline.IsZero() && time.Now().After(deadline) {
			return out
		}
		out = append(out, c.step(ex, o))
	}
}
