// HTTP service example: a Byzantine fault-tolerant web service accessed by a
// COMPLETELY UNMODIFIED net/http client.
//
// The replicated application is the page store behind an HTTP/1.1 frontend;
// each replica's Troxy terminates the secure channel, delimits HTTP requests
// (it never parses them beyond finding boundaries), votes over the replicas'
// responses, and returns a single response — so the standard library HTTP
// client works as-is, with only a custom DialContext that performs the
// secure-channel handshake.
//
//	go run ./examples/httpservice
package main

import (
	"context"
	"fmt"
	"io"
	"log"
	"net"
	"net/http"
	"strings"
	"time"

	troxy "github.com/troxy-bft/troxy"
	"github.com/troxy-bft/troxy/internal/app"
	"github.com/troxy-bft/troxy/internal/httpfront"
	"github.com/troxy-bft/troxy/internal/legacyclient"
	"github.com/troxy-bft/troxy/internal/msg"
	"github.com/troxy-bft/troxy/internal/realnet"
	itroxy "github.com/troxy-bft/troxy/internal/troxy"
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	cluster, err := troxy.NewCluster(troxy.ClusterConfig{
		Mode: troxy.ETroxy,
		App: app.NewHTTPAppFactory(map[string][]byte{
			"/index.html": []byte("<h1>BFT pages</h1>\n"),
		}),
		Classify:  httpfront.IsRead,
		FastReads: true,
		HTTP:      true,
	})
	if err != nil {
		return err
	}

	router := realnet.NewRouter()
	defer router.Close()
	cluster.Attach(router)

	listener, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	gw := realnet.NewGateway(router, msg.NodeID(0), 5000)
	go gw.Serve(listener)
	defer gw.Close()
	addr := listener.Addr().String()
	fmt.Printf("BFT web service on %s (replica 0's gateway)\n\n", addr)

	// The unmodified client: net/http with a dialer that (a) connects to
	// the gateway and (b) runs the secure-channel handshake, yielding a
	// net.Conn the HTTP client uses as any other connection.
	httpClient := &http.Client{
		Timeout: 10 * time.Second,
		Transport: &http.Transport{
			DialContext: func(ctx context.Context, network, _ string) (net.Conn, error) {
				raw, err := (&net.Dialer{}).DialContext(ctx, network, addr)
				if err != nil {
					return nil, err
				}
				return legacyclient.ClientConn(raw, cluster.ServerPub)
			},
			// One request per connection keeps the example simple.
			DisableKeepAlives: false,
		},
	}

	show := func(resp *http.Response, err error) error {
		if err != nil {
			return err
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			return err
		}
		fmt.Printf("  %s %s -> %s %q\n",
			resp.Request.Method, resp.Request.URL.Path, resp.Status, truncate(string(body), 48))
		return nil
	}

	if err := show(httpClient.Get("http://troxy/index.html")); err != nil {
		return err
	}
	if err := show(httpClient.Post("http://troxy/notes.html", "text/html",
		strings.NewReader("<p>posted through BFT agreement</p>"))); err != nil {
		return err
	}
	if err := show(httpClient.Get("http://troxy/notes.html")); err != nil {
		return err
	}
	if err := show(httpClient.Get("http://troxy/missing.html")); err != nil {
		return err
	}

	// The POST above was ordered and executed by all replicas: their page
	// stores hold identical state. A reply needs only f+1 of them, so wait
	// for the last to execute as many requests (each costs its Troxy one
	// authenticate-reply ecall; enclave counters are safe to read while it
	// runs), then stop the router: a replica's application belongs to its
	// handler goroutine while the router runs.
	executed := func(i int) uint64 { return cluster.Enclaves[i].Stats().ECalls[itroxy.ECallAuthReply] }
	for deadline := time.Now().Add(5 * time.Second); time.Now().Before(deadline); time.Sleep(time.Millisecond) {
		if executed(0) == executed(1) && executed(1) == executed(2) {
			break
		}
	}
	router.Close()
	fmt.Println()
	probe := []byte("GET /notes.html HTTP/1.1\r\nHost: probe\r\n\r\n")
	for i := 0; i < 3; i++ {
		res := string(cluster.App(i).Execute(probe))
		fmt.Printf("  replica %d serves /notes.html: %q\n", i, truncate(lastLine(res), 48))
	}
	return nil
}

func lastLine(s string) string {
	idx := strings.LastIndex(strings.TrimRight(s, "\r\n"), "\n")
	return strings.TrimRight(s[idx+1:], "\r\n")
}

func truncate(s string, n int) string {
	if len(s) <= n {
		return s
	}
	return s[:n] + "..."
}
