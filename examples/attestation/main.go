// Attestation example: the trusted-subsystem lifecycle of Section V, step
// by step — launch, measurement, quote verification, secret provisioning,
// and the rollback story of Section IV-B (an enclave restart wipes the
// fast-read cache; the system falls back to ordered execution and stays
// correct).
//
//	go run ./examples/attestation
package main

import (
	"fmt"
	"log"

	"github.com/troxy-bft/troxy/internal/authn"
	"github.com/troxy-bft/troxy/internal/enclave"
	"github.com/troxy-bft/troxy/internal/msg"
	"github.com/troxy-bft/troxy/internal/tcounter"
	itroxy "github.com/troxy-bft/troxy/internal/troxy"
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	// Each replica machine is an SGX platform with its own hardware key.
	platform := enclave.NewPlatform()

	// Launch the Troxy enclave: its 14-ecall interface is fixed at launch
	// and its code identity yields the measurement a verifier will expect.
	core := itroxy.NewCore(itroxy.Config{Self: 0, N: 3, F: 1, FastReads: true})
	trusted := itroxy.NewTrusted(core, tcounter.NewSubsystem(0))
	enc, err := platform.Launch(enclave.Definition{
		Name:         "troxy-0",
		CodeIdentity: itroxy.CodeIdentity,
	}, trusted, nil)
	if err != nil {
		return err
	}
	fmt.Printf("launched enclave %q\n  measurement: %x\n", enc.Name(), enc.Measurement())

	// Remote attestation: the operator (IAS role) verifies a quote binding
	// the measurement to a trusted platform before releasing any secret.
	verifier := enclave.NewVerifier(platform)
	quote := platform.QuoteFor(enc, []byte("provisioning-nonce"))
	if err := verifier.Verify(quote, enclave.MeasureCode(itroxy.CodeIdentity)); err != nil {
		return fmt.Errorf("attestation failed: %w", err)
	}
	fmt.Println("  quote verified against the expected measurement")

	// A quote from an impostor platform is rejected.
	rogue := enclave.NewPlatform()
	rogueEnc, err := rogue.Launch(enclave.Definition{
		Name: "impostor", CodeIdentity: itroxy.CodeIdentity,
	}, itroxy.NewTrusted(itroxy.NewCore(itroxy.Config{Self: 0, N: 3, F: 1}), tcounter.NewSubsystem(0)), nil)
	if err != nil {
		return err
	}
	if err := verifier.Verify(rogue.QuoteFor(rogueEnc, nil), enclave.MeasureCode(itroxy.CodeIdentity)); err == nil {
		return fmt.Errorf("impostor platform's quote was accepted")
	}
	fmt.Println("  impostor platform's quote rejected")

	// Provisioning: only after attestation do the deployment secrets (TLS
	// identity, Troxy group key, counter key) enter the enclave.
	dir, err := authn.NewDirectory([]byte("example-deployment-secret"))
	if err != nil {
		return err
	}
	if err := enc.Provision(map[string][]byte{
		itroxy.SecretIdentity: dir.ServiceIdentitySeed(),
		itroxy.SecretGroup:    dir.TroxyGroupKey(),
		tcounter.SecretName:   dir.CounterKey(),
	}); err != nil {
		return err
	}
	fmt.Println("  secrets provisioned; Troxy operational")

	// The trusted counter certifies ordering statements through an ecall.
	auth := tcounter.EnclaveAuthority{E: enc}
	cert, err := auth.Certify(tcounter.OrderCounter(0), 1, msg.DigestOf([]byte("prepare-1")))
	if err != nil {
		return err
	}
	fmt.Printf("  counter certificate issued: replica=%d counter=%d value=%d\n",
		cert.Replica, cert.Counter, cert.Value)
	if _, err := auth.Certify(tcounter.OrderCounter(0), 1, msg.DigestOf([]byte("prepare-1'"))); err == nil {
		return fmt.Errorf("equivocation was possible")
	}
	fmt.Println("  equivocation attempt rejected (counter is monotonic)")

	// Rollback attack: reboot the trusted subsystem. Everything volatile is
	// gone — the attacker gains an empty cache, nothing else.
	st := enc.Stats()
	fmt.Printf("\nbefore restart: %d transitions, %d ecall kinds used\n",
		st.Transitions, len(st.ECalls))
	enc.Restart()
	if _, err := auth.Certify(tcounter.OrderCounter(0), 2, msg.DigestOf([]byte("x"))); err == nil {
		return fmt.Errorf("restarted enclave certified without re-provisioning")
	}
	fmt.Println("after restart: unprovisioned — no certificates, no session keys, empty cache")
	fmt.Println("(a Troxy in this state answers no fast reads; clients fall back to ordering)")
	return nil
}
