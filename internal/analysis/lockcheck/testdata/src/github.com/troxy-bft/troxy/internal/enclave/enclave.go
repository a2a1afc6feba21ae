// Package enclave is a fixture mirror of the real internal/enclave surface:
// just the two ecall entry points, so the lockcheck ecall-transition sink can
// resolve the callee by package path.
package enclave

type Enclave struct{}

func (e *Enclave) ECall(name string, arg []byte) ([]byte, error) { return nil, nil }

func (e *Enclave) ECallAppend(dst []byte, name string, arg []byte) ([]byte, error) { return dst, nil }
