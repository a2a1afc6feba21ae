package analysis

import "go/types"

// Type predicates for recognizing the ecall boundary surface: secretflow
// identifies ecall handlers as function values of type
// func([]byte) ([]byte, error) registered in a
// map[string]func([]byte) ([]byte, error) table (internal/enclave's ECall
// dispatch shape).

// TrustedRoots are the module-relative package roots whose code runs inside
// the enclave (paper Fig. 3: the trusted Troxy subsystem). Everything else
// in the module is host-side, untrusted code.
var TrustedRoots = []string{
	"internal/enclave",
	"internal/tcounter",
	"internal/troxy",
	"internal/securechannel",
}

// Trusted reports whether the module-relative path rel lies under one of
// the trusted roots.
func Trusted(rel string) bool {
	for _, r := range TrustedRoots {
		if Under(rel, r) {
			return true
		}
	}
	return false
}

// IsECallTableType reports whether t is an ecall-table type:
// map[string]func([]byte) ([]byte, error).
func IsECallTableType(t types.Type) bool {
	if t == nil {
		return false
	}
	m, ok := t.Underlying().(*types.Map)
	if !ok {
		return false
	}
	if b, ok := m.Key().Underlying().(*types.Basic); !ok || b.Kind() != types.String {
		return false
	}
	return isHandlerSig(m.Elem())
}

// isHandlerSig reports whether t is func([]byte) ([]byte, error).
func isHandlerSig(t types.Type) bool {
	sig, ok := t.Underlying().(*types.Signature)
	if !ok || sig.Params().Len() != 1 || sig.Results().Len() != 2 {
		return false
	}
	return isByteSlice(sig.Params().At(0).Type()) &&
		isByteSlice(sig.Results().At(0).Type()) &&
		isErrorType(sig.Results().At(1).Type())
}

// isByteSlice reports whether t's underlying type is []byte.
func isByteSlice(t types.Type) bool {
	s, ok := t.Underlying().(*types.Slice)
	if !ok {
		return false
	}
	b, ok := s.Elem().Underlying().(*types.Basic)
	return ok && b.Kind() == types.Byte
}

// isErrorType reports whether t is the built-in error type.
func isErrorType(t types.Type) bool {
	named, ok := t.(*types.Named)
	return ok && named.Obj().Pkg() == nil && named.Obj().Name() == "error"
}
