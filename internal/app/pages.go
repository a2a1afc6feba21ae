package app

import (
	"fmt"
	"maps"
	"sort"

	"github.com/troxy-bft/troxy/internal/wire"
)

// Pages is the replicated page store behind the HTTP service of the Fig. 11
// experiment: GET returns a page, POST replaces it and returns the new
// content. Operations are the encoded form produced by PageGet/PagePost; the
// HTTP frontend (internal/httpfront) translates HTTP/1.1 requests into them.
type Pages struct {
	pages map[string][]byte
}

// Page operation verbs.
const (
	pageOpGet  byte = 1
	pageOpPost byte = 2
)

// NewPages creates an empty page store.
func NewPages() *Pages { return &Pages{pages: make(map[string][]byte)} }

// NewPagesFactory returns a Factory producing page stores pre-populated with
// the given pages (all replicas must start from identical state).
func NewPagesFactory(initial map[string][]byte) Factory {
	return func() Application {
		p := NewPages()
		for path, content := range initial {
			c := make([]byte, len(content))
			copy(c, content)
			p.pages[path] = c
		}
		return p
	}
}

var _ Application = (*Pages)(nil)
var _ Forker = (*Pages)(nil)

// PageGet encodes a GET operation.
func PageGet(path string) []byte {
	w := wire.NewWriter(8 + len(path))
	w.U8(pageOpGet)
	w.String(path)
	out := make([]byte, w.Len())
	copy(out, w.Bytes())
	return out
}

// PagePost encodes a POST operation replacing path's content.
func PagePost(path string, body []byte) []byte {
	w := wire.NewWriter(16 + len(path) + len(body))
	w.U8(pageOpPost)
	w.String(path)
	w.Bytes32(body)
	out := make([]byte, w.Len())
	copy(out, w.Bytes())
	return out
}

func parsePageOp(op []byte) (verb byte, path string, body []byte, ok bool) {
	r := wire.NewReader(op)
	verb = r.U8()
	path = r.String()
	switch verb {
	case pageOpGet:
	case pageOpPost:
		body = r.Bytes32()
	default:
		return 0, "", nil, false
	}
	if r.Finish() != nil || path == "" {
		return 0, "", nil, false
	}
	return verb, path, body, true
}

// Page results start with a one-byte status.
const (
	// PageOK prefixes a successful result; the rest is the page content.
	PageOK byte = 1
	// PageMissing prefixes a result for an unknown path.
	PageMissing byte = 2
)

// Execute implements Application.
func (p *Pages) Execute(op []byte) []byte {
	verb, path, body, ok := parsePageOp(op)
	if !ok {
		return badOp(op)
	}
	switch verb {
	case pageOpGet:
		content, found := p.pages[path]
		if !found {
			return []byte{PageMissing}
		}
		out := make([]byte, 1+len(content))
		out[0] = PageOK
		copy(out[1:], content)
		return out
	case pageOpPost:
		c := make([]byte, len(body))
		copy(c, body)
		p.pages[path] = c
		out := make([]byte, 1+len(c))
		out[0] = PageOK
		copy(out[1:], c)
		return out
	}
	return badOp(op)
}

// IsRead implements Application.
func (p *Pages) IsRead(op []byte) bool {
	verb, _, _, ok := parsePageOp(op)
	return ok && verb == pageOpGet
}

// Keys implements Application.
func (p *Pages) Keys(op []byte) []string {
	_, path, _, ok := parsePageOp(op)
	if !ok {
		return nil
	}
	return []string{"page" + path}
}

// Snapshot implements Application.
func (p *Pages) Snapshot() []byte {
	paths := make([]string, 0, len(p.pages))
	for k := range p.pages {
		paths = append(paths, k)
	}
	sort.Strings(paths)
	w := wire.NewWriter(256)
	w.U32(uint32(len(paths)))
	for _, path := range paths {
		w.String(path)
		w.Bytes32(p.pages[path])
	}
	out := make([]byte, w.Len())
	copy(out, w.Bytes())
	return out
}

// Restore implements Application.
func (p *Pages) Restore(snapshot []byte) error {
	r := wire.NewReader(snapshot)
	n := r.SliceLen()
	pages := make(map[string][]byte, n)
	for i := 0; i < n; i++ {
		path := r.String()
		content := r.Bytes32()
		if r.Err() != nil {
			break
		}
		pages[path] = content
	}
	if err := r.Finish(); err != nil {
		return fmt.Errorf("app: restore pages: %w", err)
	}
	p.pages = pages
	return nil
}

// Fork implements Forker. A page's content is replaced by a POST, never
// written into, so the fork shares the contents and copies only the index.
func (p *Pages) Fork() Application { return &Pages{pages: maps.Clone(p.pages)} }

// Len returns the number of stored pages.
func (p *Pages) Len() int { return len(p.pages) }
