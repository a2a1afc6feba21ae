package analysis

import "strings"

// TrustedRoots are the module-relative package roots whose code runs inside
// the enclave (paper Fig. 3: the trusted Troxy subsystem). The packages they
// import are compiled into the enclave image with them;
// TestTrustedComputingBase in internal/troxy pins that set and counts its
// lines. Every other package of the module is host-side, untrusted code.
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
		if rel == r || strings.HasPrefix(rel, r+"/") {
			return true
		}
	}
	return false
}
