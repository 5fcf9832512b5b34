// Command selfstabd is the long-lived self-stabilization service: an
// HTTP/JSON daemon hosting many tenant graphs, each running one of the
// paper's protocols (SMM maximal matching, SMI maximal independent set)
// under streaming topology mutations and fault injection.
//
//	selfstabd -data /var/lib/selfstab -addr 127.0.0.1:8080
//
// Robustness contract:
//
//   - Every mutation is journaled durably before it is applied: the
//     event loop group-commits each batch with a single fsync issued
//     before the first apply, so a crash at any instant replays to the
//     exact pre-crash state. The journal is segmented; checkpoints
//     retire segments the snapshot covers, bounding replay.
//   - Overload degrades, never collapses: per-tenant token buckets
//     answer 429 and bounded queues answer 503, both with Retry-After.
//   - A panic inside one tenant quarantines that tenant (503) while the
//     rest of the daemon keeps serving.
//   - SIGTERM/SIGINT drains in-flight epochs, flushes snapshots, and
//     exits 0; a second signal aborts immediately.
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

	"selfstab/internal/service"
)

func main() {
	sig := make(chan os.Signal, 2)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr, sig))
}

// run is the daemon body, factored out of main so tests can drive the
// full lifecycle — flags, listen, serve, signal, drain — in-process.
//
// It is the process entry point in all but name, so it owns the drain
// context's root.
//
//selfstab:ctx-root
func run(args []string, out, errw io.Writer, sig <-chan os.Signal) int {
	fs := flag.NewFlagSet("selfstabd", flag.ContinueOnError)
	fs.SetOutput(errw)
	addr := fs.String("addr", "127.0.0.1:8080", "listen address (host:port; port 0 picks a free port)")
	data := fs.String("data", "", "data directory for journals and snapshots (required)")
	queue := fs.Int("queue", 0, "per-tenant command queue depth (0 = default)")
	rate := fs.Float64("rate", 0, "per-tenant sustained requests/sec (0 = default)")
	burst := fs.Int("burst", 0, "per-tenant burst allowance (0 = default)")
	snapEvery := fs.Int("snapshot-every", 0, "checkpoint every N mutations (0 = default, negative disables)")
	shards := fs.Int("shards", 0, "executor shards per tenant (0 or 1 = single-threaded)")
	maxTenants := fs.Int("max-tenants", 0, "tenant cap (0 = default)")
	segmentBytes := fs.Int64("segment-bytes", 0, "journal segment rotation threshold in bytes (0 = default 4MiB)")
	chaos := fs.Bool("chaos", false, "enable the chaos_panic fault-injection op")
	drain := fs.Duration("drain", 30*time.Second, "graceful shutdown budget before hard kill")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *data == "" {
		fmt.Fprintln(errw, "selfstabd: -data is required")
		fs.Usage()
		return 2
	}

	svc, err := service.Open(service.Options{
		DataDir:       *data,
		QueueDepth:    *queue,
		RatePerSec:    *rate,
		Burst:         *burst,
		SnapshotEvery: *snapEvery,
		Shards:        *shards,
		MaxTenants:    *maxTenants,
		SegmentBytes:  *segmentBytes,
		EnableChaos:   *chaos,
	})
	if err != nil {
		fmt.Fprintf(errw, "selfstabd: open service: %v\n", err)
		return 1
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fmt.Fprintf(errw, "selfstabd: listen: %v\n", err)
		svc.Kill()
		return 1
	}
	srv := &http.Server{Handler: svc.Handler()}
	fmt.Fprintf(out, "selfstabd listening on http://%s (data %s)\n", ln.Addr(), *data)

	serveErr := make(chan error, 1)
	go func() { serveErr <- srv.Serve(ln) }()

	select {
	case err := <-serveErr:
		fmt.Fprintf(errw, "selfstabd: serve: %v\n", err)
		svc.Kill()
		return 1
	case s := <-sig:
		fmt.Fprintf(out, "selfstabd: %v received, draining (budget %s; signal again to abort)\n", s, *drain)
	}

	ctx, cancel := context.WithTimeout(context.Background(), *drain)
	defer cancel()
	go func() {
		select {
		case s := <-sig:
			fmt.Fprintf(out, "selfstabd: second %v, aborting drain\n", s)
			cancel()
		case <-ctx.Done():
		}
	}()

	if err := srv.Shutdown(ctx); err != nil {
		fmt.Fprintf(errw, "selfstabd: http shutdown: %v\n", err)
	}
	if err := svc.Close(ctx); err != nil {
		fmt.Fprintf(errw, "selfstabd: drain: %v\n", err)
		return 1
	}
	fmt.Fprintln(out, "selfstabd: drained cleanly")
	return 0
}
