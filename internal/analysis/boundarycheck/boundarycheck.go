// Package boundarycheck enforces the enclave trust boundary of the paper's
// Section V-A ("the Troxy defines only 16 ecalls and no ocalls") on the
// import and reference graph:
//
//  1. Ecall surface (untrusted → trusted): the untrusted runtime packages
//     (realnet, httpfront, node, legacyclient, simnet) may not import the
//     trusted substrate (enclave, tcounter, troxy, securechannel) at all,
//     with one declared exception — legacyclient speaks the secure channel's
//     client side. Where an import is permitted, only the declared boundary
//     API may be referenced; reaching for enclave-internal symbols (e.g.
//     securechannel.ServerHandshake, which handles the service identity
//     private key) is a violation even through a permitted import.
//
//  2. No ocalls (trusted → untrusted): the trusted packages may not depend
//     on the active untrusted runtimes (realnet, simnet, legacyclient) —
//     enclave-resident code cannot own sockets, wall clocks, or goroutine
//     scheduling. Passive untrusted packages (node: pure interfaces;
//     httpfront: a pure protocol codec the Troxy's protocol handlers need
//     inside the enclave, as in the paper's protocol-specific reply voting)
//     remain importable.
package boundarycheck

import (
	"go/types"
	"strconv"
	"strings"

	"github.com/troxy-bft/troxy/internal/analysis"
)

// Untrusted runtime roots (module-relative).
var untrustedRoots = []string{
	"internal/realnet",
	"internal/httpfront",
	"internal/node",
	"internal/legacyclient",
	"internal/simnet",
}

// activeUntrusted are the untrusted packages that own I/O, wall clocks, or
// scheduling; trusted code may never depend on them (rule 2).
var activeUntrusted = []string{
	"internal/realnet",
	"internal/simnet",
	"internal/legacyclient",
}

// allowedImports whitelists (untrusted package root → trusted package root)
// import edges. Everything not listed is a violation at the import site.
var allowedImports = map[string]map[string]bool{
	"internal/legacyclient": {"internal/securechannel": true},
}

// allowedSymbols is the declared boundary API per trusted root: the symbols
// untrusted code may reference through a permitted import. Keys are "Name"
// for package-level objects and "Type.Member" for methods and fields;
// "Type.*" admits every member of a type.
var allowedSymbols = map[string]map[string]bool{
	"internal/securechannel": {
		// Client-side handshake and record protection: this is the wire
		// protocol a legacy client speaks toward the Troxy. The server side
		// (ServerHandshake, ServerConn) holds the service identity key and
		// exists only inside the enclave boundary.
		"NewClientHandshake": true,
		"ClientHandshake":    true,
		"ClientHandshake.*":  true,
		"Session":            true,
		"Session.Seal":       true,
		// Seal into room the caller brings: a client seals a record straight
		// into the body of the envelope that carries it.
		"Session.AppendSeal": true,
		"Session.Open":       true,
		// Coalesced-record siblings of Seal/Open: one AEAD pass per flushed
		// batch. Same trust story — record protection is exactly what the
		// client side of the channel is for.
		// Frames is what OpenFrames returns: the opened record's plaintext,
		// which is the client's own, as an iterable view.
		"Session.SealFrames":      true,
		"Session.OpenFrames":      true,
		"Frames":                  true,
		"Frames.*":                true,
		"Session.Established":     true,
		"Conn":                    true,
		"Conn.*":                  true,
		"ClientConn":              true,
		"IsHandshakeFrame":        true,
		"RecordSize":              true,
		"Overhead":                true,
		"HandshakeOverheadClient": true,
		"HandshakeOverheadServer": true,
		"ErrHandshake":            true,
		"ErrRecord":               true,
		"ErrNotEstablished":       true,
	},
	// No other trusted root has a declared surface toward the untrusted
	// runtimes: the replica composition layer (internal/replica, cmd/*)
	// launches enclaves and routes ecalls, and it is deliberately not part
	// of the untrusted set checked here.
	"internal/enclave":  {},
	"internal/tcounter": {},
	"internal/troxy":    {},
}

// Analyzer is the boundarycheck analyzer.
var Analyzer = &analysis.Analyzer{
	Name: "boundarycheck",
	Doc:  "enforce the enclave trust boundary: untrusted code reaches trusted packages only through the declared ecall surface, and trusted code performs no ocalls into active untrusted runtimes",
	Run:  run,
}

func rootOf(rel string, roots []string) (string, bool) {
	for _, r := range roots {
		if analysis.Under(rel, r) {
			return r, true
		}
	}
	return "", false
}

func run(pass *analysis.Pass) error {
	rel, ok := analysis.RelPath(pass.Path())
	if !ok {
		return nil
	}
	if root, ok := rootOf(rel, analysis.TrustedRoots); ok {
		checkTrusted(pass, root)
	}
	if root, ok := rootOf(rel, untrustedRoots); ok {
		checkUntrusted(pass, root)
	}
	return nil
}

// checkTrusted enforces the no-ocall rule on a trusted package's imports.
func checkTrusted(pass *analysis.Pass, selfRoot string) {
	for _, f := range pass.Files {
		for _, imp := range f.Imports {
			path, err := strconv.Unquote(imp.Path.Value)
			if err != nil {
				continue
			}
			rel, ok := analysis.RelPath(path)
			if !ok {
				continue
			}
			if root, ok := rootOf(rel, activeUntrusted); ok {
				pass.Reportf(imp.Pos(),
					"trusted package %s must not import the untrusted runtime %s: enclave-resident code performs no ocalls (sockets, clocks, scheduling stay outside the boundary)",
					selfRoot, root)
			}
		}
	}
}

// checkUntrusted enforces the ecall-surface rule on an untrusted package.
func checkUntrusted(pass *analysis.Pass, selfRoot string) {
	// Import-level: untrusted may import trusted only along declared edges.
	permitted := allowedImports[selfRoot]
	for _, f := range pass.Files {
		for _, imp := range f.Imports {
			path, err := strconv.Unquote(imp.Path.Value)
			if err != nil {
				continue
			}
			rel, ok := analysis.RelPath(path)
			if !ok {
				continue
			}
			if root, ok := rootOf(rel, analysis.TrustedRoots); ok && !permitted[root] {
				pass.Reportf(imp.Pos(),
					"untrusted package %s must not import trusted package %s: the enclave is entered only through the declared ecall surface (see DESIGN.md, trust-boundary enforcement)",
					selfRoot, root)
			}
		}
	}

	// Symbol-level: through a permitted import, only the declared boundary
	// API may be referenced.
	for id, obj := range pass.TypesInfo.Uses {
		if obj == nil || obj.Pkg() == nil || obj.Pkg() == pass.Pkg {
			continue
		}
		rel, ok := analysis.RelPath(obj.Pkg().Path())
		if !ok {
			continue
		}
		root, ok := rootOf(rel, analysis.TrustedRoots)
		if !ok {
			continue
		}
		key, ok := symbolKey(obj)
		if !ok {
			continue // fields/methods without resolvable owners are covered via their type
		}
		if !symbolAllowed(allowedSymbols[root], key) {
			pass.Reportf(id.Pos(),
				"untrusted package %s reaches trusted symbol %s.%s outside the declared ecall surface",
				selfRoot, root, key)
		}
	}
}

// symbolKey maps an object to its allowlist key: "Name" for package-level
// objects, "Recv.Name" for methods. Struct fields return ok=false — their
// owning type's own uses gate access.
func symbolKey(obj types.Object) (string, bool) {
	switch obj := obj.(type) {
	case *types.Func:
		sig, ok := obj.Type().(*types.Signature)
		if !ok || sig.Recv() == nil {
			return obj.Name(), true
		}
		t := sig.Recv().Type()
		if p, ok := t.(*types.Pointer); ok {
			t = p.Elem()
		}
		if named, ok := t.(*types.Named); ok {
			return named.Obj().Name() + "." + obj.Name(), true
		}
		return obj.Name(), true
	case *types.Var:
		if obj.IsField() {
			return "", false
		}
		return obj.Name(), true
	case *types.Const, *types.TypeName:
		return obj.Name(), true
	}
	return "", false
}

func symbolAllowed(set map[string]bool, key string) bool {
	if set[key] {
		return true
	}
	if typ, _, ok := strings.Cut(key, "."); ok && set[typ+".*"] {
		return true
	}
	return false
}
