package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	cedr "repro"
	"repro/internal/server"
)

// runServe is serve mode: host one CEDR system behind a TCP listener
// speaking the binary protocol, optionally an HTTP/JSON surface, and —
// with -wal — a write-ahead log. A restart against the same log replays
// it first, so queries, operator state, and result histories resume
// exactly where the durable prefix ends; clients re-subscribe by the
// query ids they already hold (the registry order is the log order).
//
// SIGINT/SIGTERM triggers the graceful path: listeners close, the
// engine drains, subscriber queues flush, and the system closes —
// syncing the log — before the process exits. A crash (kill -9) skips
// all of that by definition; that is what the log is for.
func runServe(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("cedr serve", flag.ContinueOnError)
	fs.SetOutput(stderr)
	listen := fs.String("listen", ":4617", "TCP address for the binary protocol")
	httpAddr := fs.String("http", "", "optional HTTP/JSON address (e.g. :8080)")
	walPath := fs.String("wal", "", "write-ahead log path (durable server; replays existing records first)")
	syncEvery := fs.Int("sync-every", 0, "fsync after this many WAL records (0 = library default)")
	queue := fs.Int("queue", 0, "per-connection outbound queue bound, in frames waiting to be written (0 = default); memory follows the bytes queued")
	if err := fs.Parse(args); err != nil {
		return 2
	}

	fail := func(err error) int {
		fmt.Fprintln(stderr, "cedr serve:", err)
		return 1
	}

	var (
		sys *cedr.System
		err error
	)
	if *walPath != "" {
		var opts []cedr.Option
		if *syncEvery > 0 {
			opts = append(opts, cedr.WithSyncEvery(*syncEvery))
		}
		if sys, err = cedr.Open(*walPath, opts...); err != nil {
			return fail(err)
		}
	} else {
		sys = cedr.New()
	}

	var sopts []server.Option
	if *queue > 0 {
		sopts = append(sopts, server.WithQueue(*queue))
	}
	srv := server.New(sys, sopts...)

	ln, err := net.Listen("tcp", *listen)
	if err != nil {
		sys.Close()
		return fail(err)
	}
	if n := len(sys.Queries()); n > 0 {
		fmt.Fprintf(stdout, "cedr serve: recovered %d quer%s from %s\n",
			n, plural(n), *walPath)
	}
	fmt.Fprintf(stdout, "cedr serve: listening on %s\n", ln.Addr())

	serveErr := make(chan error, 2)
	go func() { serveErr <- srv.Serve(ln) }()

	var hsrv *http.Server
	if *httpAddr != "" {
		hln, err := net.Listen("tcp", *httpAddr)
		if err != nil {
			srv.Shutdown()
			return fail(err)
		}
		fmt.Fprintf(stdout, "cedr serve: http on %s\n", hln.Addr())
		hsrv = &http.Server{Handler: srv.Handler()}
		go func() {
			if err := hsrv.Serve(hln); err != nil && err != http.ErrServerClosed {
				serveErr <- err
			}
		}()
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	select {
	case s := <-sig:
		fmt.Fprintf(stdout, "cedr serve: %v — draining\n", s)
	case err := <-serveErr:
		if err != nil {
			// Listener failure: still drain what was accepted.
			srv.Shutdown()
			return fail(err)
		}
	}

	if hsrv != nil {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		hsrv.Shutdown(ctx)
		cancel()
	}
	if err := srv.Shutdown(); err != nil {
		return fail(fmt.Errorf("durability failure on shutdown: %w", err))
	}
	fmt.Fprintln(stdout, "cedr serve: stopped")
	return 0
}

func plural(n int) string {
	if n == 1 {
		return "y"
	}
	return "ies"
}
