package main

import (
	"context"
	"fmt"
	"path/filepath"
	"strings"
	"sync"
	"time"

	"twosmart/internal/serve"
)

// artifacts are the built binaries and the trained model a run serves.
type artifacts struct {
	bin        string // directory holding smartserve, smartgw, smartrain
	model, env string // det.json and env.json
}

// servers is the set of serving processes of one workload pass: one
// smartserve, or one smartgw in front of two smartserve -shard.
type servers struct {
	shards  []*proc
	gateway *proc
}

// entry is the address the load connects to.
func (sv *servers) entry() string {
	if sv.gateway != nil {
		return sv.gateway.addr
	}
	return sv.shards[0].addr
}

func (sv *servers) procs() []*proc {
	out := append([]*proc(nil), sv.shards...)
	if sv.gateway != nil {
		out = append(out, sv.gateway)
	}
	return out
}

// stop stops every started process: the gateway first, so it never sees
// its shards die under it. A partly started set has nil entries.
func (sv *servers) stop() {
	if sv.gateway != nil {
		sv.gateway.stop()
	}
	for _, p := range sv.shards {
		if p != nil {
			p.stop()
		}
	}
}

// startServers spawns the workload's serving processes with their default
// flags (plus -telemetry-addr when traced) and waits until they listen.
func startServers(ctx context.Context, sp spec, art artifacts, traced bool) (*servers, error) {
	shardArgs := []string{"-model", art.model, "-addr", "127.0.0.1:0"}
	if sp.envelope {
		shardArgs = append(shardArgs, "-envelope", art.env)
	}
	n := 1
	if sp.gateway {
		shardArgs = append(shardArgs, "-shard")
		n = 2
	}
	sv := &servers{shards: make([]*proc, n)}
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i := range sv.shards {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			sv.shards[i], errs[i] = spawn(ctx, fmt.Sprintf("smartserve-%d", i),
				filepath.Join(art.bin, "smartserve"), traced, shardArgs...)
		}(i)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			sv.stop()
			return nil, err
		}
	}
	if sp.gateway {
		addrs := make([]string, n)
		for i, p := range sv.shards {
			addrs[i] = p.addr
		}
		gw, err := spawn(ctx, "smartgw", filepath.Join(art.bin, "smartgw"), traced,
			"-shards", strings.Join(addrs, ","), "-addr", "127.0.0.1:0")
		if err != nil {
			sv.stop()
			return nil, err
		}
		sv.gateway = gw
	}
	return sv, nil
}

// setUp starts the servers and dials the load connections; it returns once
// every connection holds its Welcome, with the time that took.
func setUp(ctx context.Context, sp spec, art artifacts, conns int, traced bool) (*servers, []*serve.Client, time.Duration, error) {
	start := time.Now()
	sv, err := startServers(ctx, sp, art, traced)
	if err != nil {
		return nil, nil, 0, err
	}
	clients := make([]*serve.Client, conns)
	errs := make([]error, conns)
	var wg sync.WaitGroup
	dctx, cancel := context.WithTimeout(ctx, 15*time.Second)
	defer cancel()
	for i := range clients {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			clients[i], errs[i] = serve.Dial(dctx, sv.entry(), fmt.Sprintf("bench-%d", i))
		}(i)
	}
	wg.Wait()
	took := time.Since(start)
	for _, err := range errs {
		if err != nil {
			closeAll(clients)
			sv.stop()
			return nil, nil, 0, fmt.Errorf("dialing %s: %w", sv.entry(), err)
		}
	}
	return sv, clients, took, nil
}

func closeAll(clients []*serve.Client) {
	for _, c := range clients {
		if c != nil {
			c.Close()
		}
	}
}
