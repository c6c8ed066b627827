// Command mpicserve is the grid execution service: a long-lived HTTP
// server that accepts grid specifications over JSON — the same fields
// the mpicbench -sweep-* flags take — runs each as a durable session
// under a data directory, and streams the engine's fine-grained progress
// over Server-Sent Events.
//
//	mpicserve -addr :8080 -data ./grids -workers 4
//
// Submit a grid and watch it run:
//
//	curl -s localhost:8080/sessions -d '{"n":"4,6","schemes":"A,B","rates":"0,0.002","trials":2}'
//	curl -s localhost:8080/sessions/<id>
//	curl -N localhost:8080/sessions/<id>/events
//	curl -s localhost:8080/sessions/<id>/result
//
// Sessions are content-addressed by their spec, so re-submitting an
// identical grid attaches to the existing session, and restarting the
// server over the same -data directory resumes every unfinished
// session from its journal instead of starting over. On SIGINT or
// SIGTERM the server stops its workers: completed cells stay durable,
// and the next start picks up exactly where this one left off.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"mpic/internal/service"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "mpicserve:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("mpicserve", flag.ContinueOnError)
	var (
		addr    = fs.String("addr", ":8080", "listen address")
		dataDir = fs.String("data", "", "session data directory (required); restarting over it resumes unfinished sessions")
		workers = fs.Int("workers", 2, "cells each session runs at once")
		retries = fs.Int("retries", 0, "extra attempts per failed cell before it is quarantined")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *dataDir == "" {
		return fmt.Errorf("-data is required")
	}
	if *workers < 1 {
		return fmt.Errorf("-workers must be at least 1, got %d", *workers)
	}
	if *retries < 0 {
		return fmt.Errorf("-retries must be non-negative, got %d", *retries)
	}

	logger := log.New(os.Stderr, "", log.LstdFlags)
	svc, err := service.New(service.Options{
		DataDir: *dataDir,
		Workers: *workers,
		Retries: *retries,
		Logf:    logger.Printf,
	})
	if err != nil {
		return err
	}

	srv := &http.Server{Addr: *addr, Handler: svc.Handler()}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	errc := make(chan error, 1)
	go func() {
		logger.Printf("mpicserve: listening on %s (data %s, %d workers/session)", *addr, *dataDir, *workers)
		errc <- srv.ListenAndServe()
	}()

	select {
	case err := <-errc:
		// The listener failed outright; still stop the workers cleanly.
		shutdownCtx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		_ = svc.Shutdown(shutdownCtx)
		return err
	case <-ctx.Done():
	}

	// Graceful stop: stop the sessions' workers (SSE streams end when the
	// sessions' subscriber channels close), then the HTTP surface.
	logger.Printf("mpicserve: shutting down")
	shutdownCtx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := svc.Shutdown(shutdownCtx); err != nil {
		return fmt.Errorf("stopping workers: %w", err)
	}
	if err := srv.Shutdown(shutdownCtx); err != nil && !errors.Is(err, http.ErrServerClosed) {
		return err
	}
	logger.Printf("mpicserve: stopped")
	return nil
}
