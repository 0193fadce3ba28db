package main

import (
	"bytes"
	"errors"
	"fmt"
	"net"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"versadep/internal/interceptor"
	"versadep/internal/orb"
	"versadep/internal/replication"
	"versadep/internal/replicator"
	"versadep/internal/simnet"
	"versadep/internal/transport"
	"versadep/internal/transport/tcptransport"
	"versadep/internal/vtime"
)

const (
	objectName = "KV"
	// convergeTimeout bounds every wait for a view, a switch or a state
	// transfer; missing it is an error, never retried.
	convergeTimeout = 10 * time.Second
)

// application is what a replica registers: a servant with state capture.
type application interface {
	orb.Servant
	replication.Checkpointable
}

// replica is one replica process of the cluster.
type replica struct {
	addr string
	node *replicator.ReplicaNode // nil once crashed
	app  *kvApp
	down bool
}

// cluster is one replica group plus its clients, on simnet or on loopback
// TCP. It owns the endpoints it passes in and the application it
// registers, and wraps only those.
type cluster struct {
	sp    *spec
	seed  int64
	model vtime.CostModel
	net   *simnet.Network // nil on TCP
	wire  *wireCounters
	apps  *appCounters  // nil when untraced
	inbox *inboxSampler // nil when untraced
	board *noticeBoard

	mu       sync.Mutex
	replicas []*replica
	clients  []*replicator.ClientNode // client nodes not yet retired
	named    int                      // client nodes ever started
	slots    []atomic.Pointer[replicator.ClientNode]
	// retired sums the trace counters of crashed replicas and replaced
	// client nodes, which are let go so the live heap is the system's.
	retired  map[string]int64
	tcpEPs   []*tcptransport.Endpoint
	bound    map[string]string // TCP: name → listening host:port
	stopping sync.WaitGroup    // crashed nodes shutting down
}

func newCluster(sp *spec, seed int64, traced bool) *cluster {
	c := &cluster{
		sp:      sp,
		seed:    seed,
		model:   vtime.DefaultCostModel(),
		wire:    &wireCounters{},
		board:   newNoticeBoard(),
		bound:   make(map[string]string),
		retired: make(map[string]int64),
	}
	if !sp.tcp {
		c.net = simnet.New(simnet.WithCostModel(c.model), simnet.WithSeed(uint64(seed)))
	}
	if traced {
		c.apps = &appCounters{}
		c.inbox = startInboxSampler(c.wire)
	}
	return c
}

// endpoint attaches a new process. A TCP endpoint knows the listening
// address of every process the cluster reserved or started before it;
// older processes learn newer ones from the first frame they receive.
func (c *cluster) endpoint(addr string) (transport.MultiEndpoint, error) {
	var ep transport.MultiEndpoint
	if c.net != nil {
		sep, err := c.net.Endpoint(addr)
		if err != nil {
			return nil, err
		}
		ep = sep
	} else {
		c.mu.Lock()
		bind, ok := c.bound[addr]
		if !ok {
			bind = "127.0.0.1:0"
		}
		peers := make(map[string]string, len(c.bound))
		for k, v := range c.bound {
			peers[k] = v
		}
		c.mu.Unlock()
		tep, err := tcptransport.Listen(addr, bind, peers)
		if err != nil {
			return nil, err
		}
		c.mu.Lock()
		c.bound[addr] = tep.BoundAddr()
		c.tcpEPs = append(c.tcpEPs, tep)
		c.mu.Unlock()
		ep = tep
	}
	wrapped := countingEndpoint{MultiEndpoint: ep, w: c.wire}
	if c.inbox != nil {
		c.inbox.add(wrapped)
	}
	return wrapped, nil
}

// reservePorts gives each name a free loopback port, so every process
// knows every other from the start: a replica must be able to reach a
// client or a joiner it never heard from. The ports lie below 32768,
// where Linux does not pick the local ports of outgoing connections, so
// none is taken before its endpoint listens.
func (c *cluster) reservePorts(names []string) error {
	for _, n := range names {
		for tries := 0; ; tries++ {
			if tries == 32768-firstPort {
				return errors.New("no free loopback port below 32768")
			}
			if nextPort >= 32768 {
				nextPort = firstPort
			}
			port := nextPort
			nextPort++
			ln, err := net.Listen("tcp", fmt.Sprintf("127.0.0.1:%d", port))
			if err != nil {
				continue
			}
			c.bound[n] = ln.Addr().String()
			if err := ln.Close(); err != nil {
				return err
			}
			break
		}
	}
	return nil
}

// firstPort is the lowest reserved port; nextPort starts at a point set
// by the process id, so two benchmark processes rarely meet.
const firstPort = 20000

var nextPort = firstPort + os.Getpid()%10000

func (c *cluster) startReplica(seeds []string, style replication.Style) (*replica, error) {
	c.mu.Lock()
	addr := replicaName(len(c.replicas))
	c.mu.Unlock()
	ep, err := c.endpoint(addr)
	if err != nil {
		return nil, err
	}
	app := newKVApp(c.sp.keys, c.seed)
	var servant application = app
	if c.apps != nil {
		servant = tracedApp{kvApp: app, c: c.apps}
	}
	node := replicator.StartReplica(ep, replicator.ReplicaConfig{
		Seeds: seeds,
		Replication: replication.Config{
			Style:           style,
			CheckpointEvery: checkpointEvery,
			Model:           c.model,
			State:           servant,
			Observer:        c.board.observe,
		},
	})
	node.Register(objectName, servant)
	r := &replica{addr: addr, node: node, app: app}
	c.mu.Lock()
	c.replicas = append(c.replicas, r)
	c.mu.Unlock()
	return r, nil
}

// live lists the replicas that have not been crashed.
func (c *cluster) live() []*replica {
	c.mu.Lock()
	defer c.mu.Unlock()
	var out []*replica
	for _, r := range c.replicas {
		if !r.down {
			out = append(out, r)
		}
	}
	return out
}

func replicaName(i int) string { return fmt.Sprintf("replica-%d", i) }

func clientName(i int) string { return fmt.Sprintf("client-%d", i) }

func addrs(rs []*replica) []string {
	out := make([]string, len(rs))
	for i, r := range rs {
		out[i] = r.addr
	}
	return out
}

// maxClientGenerations bounds how often the load moves to fresh client
// nodes, and maxReplacements how many replicas join after boot. On TCP
// every such name gets its port before the group boots, so every process
// can reach every other, as with a static peer list.
const (
	maxClientGenerations = 64
	maxReplacements      = 64
)

// boot starts the replicas one by one, then the clients, and waits until
// every client has completed one request.
func (c *cluster) boot() error {
	slots := c.sp.clients
	if c.net == nil {
		var names []string
		for i := 0; i < groupSize+maxReplacements; i++ {
			names = append(names, replicaName(i))
		}
		for i := 0; i < slots*maxClientGenerations; i++ {
			names = append(names, clientName(i))
		}
		if err := c.reservePorts(names); err != nil {
			return err
		}
	}
	var seeds []string
	for i := 0; i < groupSize; i++ {
		r, err := c.startReplica(seeds, c.sp.style)
		if err != nil {
			return err
		}
		if i == 0 {
			seeds = []string{r.addr}
		}
		if err := c.waitConverged(i+1, nil); err != nil {
			return err
		}
	}
	c.slots = make([]atomic.Pointer[replicator.ClientNode], slots)
	if err := c.refreshClients(); err != nil {
		return err
	}
	for i := range c.slots {
		if _, err := c.client(i).ORB().Invoke(objectName, "get", getArgs(0), 0); err != nil {
			return fmt.Errorf("first request of client %d: %w", i, err)
		}
	}
	return nil
}

// client returns the node the load's i-th client uses now.
func (c *cluster) client(i int) *replicator.ClientNode { return c.slots[i].Load() }

// refreshClients moves the load to fresh client nodes whose member list
// is the group's current membership, as a client re-reading a naming
// service would. A client learns members only from view hints answering
// a submission sent to a non-coordinator, so after a few primary
// crashes its original list can name dead replicas only. Each load
// worker retires its replaced node once its request in flight is done.
func (c *cluster) refreshClients() error {
	members := addrs(c.live())
	for i := range c.slots {
		c.mu.Lock()
		n := c.named
		c.named++
		c.mu.Unlock()
		if n >= len(c.slots)*maxClientGenerations {
			return errors.New("out of client generations")
		}
		ep, err := c.endpoint(clientName(n))
		if err != nil {
			return err
		}
		cfg := replicator.ClientConfig{
			Members: members,
			Model:   c.model,
			Timeout: 500 * time.Millisecond,
			Retries: 20,
		}
		if c.sp.voting {
			cfg.Filter = interceptor.FilterMajority
			cfg.ExpectedReplies = groupSize
		}
		cl := replicator.StartClient(ep, cfg)
		c.mu.Lock()
		c.clients = append(c.clients, cl)
		c.mu.Unlock()
		c.slots[i].Store(cl)
	}
	return nil
}

// retireClient stops a replaced client node; its counters are kept.
func (c *cluster) retireClient(cl *replicator.ClientNode) {
	c.mu.Lock()
	for k, v := range cl.TraceSnapshot().Counters {
		c.retired[k] += v
	}
	for i, x := range c.clients {
		if x == cl {
			c.clients = append(c.clients[:i], c.clients[i+1:]...)
			break
		}
	}
	c.mu.Unlock()
	cl.Stop()
}

// waitConverged waits until every live replica reports a view of want
// members and, if joiner is set, the joiner has its state.
func (c *cluster) waitConverged(want int, joiner *replica) error {
	deadline := time.Now().Add(convergeTimeout)
	for {
		ok := true
		for _, r := range c.live() {
			v, err := r.node.Member().View()
			if err != nil || len(v.Members) != want {
				ok = false
				break
			}
		}
		if ok && joiner != nil {
			ok = joiner.node.Engine().StatsSnapshot().Synced
		}
		if ok {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("group did not converge to %d members", want)
		}
		time.Sleep(time.Millisecond)
	}
}

// crashPrimary kills the replica whose engine reports the primary role
// and returns the instant of the crash call.
func (c *cluster) crashPrimary() (time.Time, error) {
	deadline := time.Now().Add(convergeTimeout)
	for {
		for _, r := range c.live() {
			if r.node.Engine().Role() != replication.RolePrimary {
				continue
			}
			c.mu.Lock()
			node := r.node
			r.down, r.node = true, nil
			for k, v := range node.TraceSnapshot().Counters {
				c.retired[k] += v
			}
			c.mu.Unlock()
			at := time.Now()
			if c.net != nil {
				c.net.Crash(r.addr)
				c.stopping.Add(1)
				go func() {
					defer c.stopping.Done()
					node.Stop()
				}()
			} else {
				// On TCP the process dies by closing its endpoint.
				node.Stop()
			}
			return at, nil
		}
		if time.Now().After(deadline) {
			return time.Time{}, errors.New("no live replica reports the primary role")
		}
		time.Sleep(time.Millisecond)
	}
}

// addReplica grows the group by one replica in the group's current style
// and waits until every replica sees the new view and the joiner holds
// the transferred state.
func (c *cluster) addReplica() error {
	live := c.live()
	if len(live) == 0 {
		return errors.New("no live replica to join through")
	}
	style := live[0].node.Engine().Style()
	r, err := c.startReplica(addrs(live), style)
	if err != nil {
		return err
	}
	return c.waitConverged(len(live)+1, r)
}

// switchTo requests a style switch and waits until every live replica
// reports the target style. It returns when the last replica got there.
func (c *cluster) switchTo(target replication.Style) (time.Duration, error) {
	live := c.live()
	if len(live) == 0 {
		return 0, errors.New("no live replica")
	}
	start := time.Now()
	live[0].node.Engine().RequestSwitch(target, 0)
	last, err := c.board.awaitStyle(addrs(live), target, start, start.Add(convergeTimeout))
	if err != nil {
		for _, r := range live {
			st := r.node.Engine().StatsSnapshot()
			v, _ := r.node.Member().View()
			progress("  %s style %v role %v synced %v view %v switches %d", r.addr, st.Style, st.Role, st.Synced, v.Members, st.Switches)
		}
		return 0, err
	}
	return last.Sub(start), nil
}

// quiesce brings every live replica to the same state: a passive group
// is switched to active (backups otherwise lag by up to a checkpoint
// interval), then the states are compared until they agree.
func (c *cluster) quiesce() error {
	live := c.live()
	if len(live) == 0 {
		return errors.New("no live replica")
	}
	if live[0].node.Engine().Style().IsPassive() {
		if _, err := c.switchTo(replication.Active); err != nil {
			return fmt.Errorf("quiescing switch: %w", err)
		}
	}
	deadline := time.Now().Add(convergeTimeout)
	for {
		ref := live[0].app.State()
		same := true
		for _, r := range live[1:] {
			if !bytes.Equal(ref, r.app.State()) {
				same = false
				break
			}
		}
		if same {
			return nil
		}
		if time.Now().After(deadline) {
			return errors.New("live replicas hold different states")
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// setTracing turns the traced boundaries on or off.
func (c *cluster) setTracing(on bool) {
	c.wire.on.Store(on)
	if c.apps != nil {
		c.apps.on.Store(on)
	}
}

// wireBytes is the cluster's wire-byte counter: simnet's own statistics,
// or the endpoint wrappers' count on TCP.
func (c *cluster) wireBytes() int64 {
	if c.net != nil {
		return c.net.Stats().BytesSent
	}
	return c.wire.bytes.Load()
}

// corruptFrames counts frames the TCP endpoints dropped as corrupt.
func (c *cluster) corruptFrames() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	var n int64
	for _, ep := range c.tcpEPs {
		n += int64(ep.Stats().CorruptFrames)
	}
	return n
}

// shutdown stops every client and replica and waits for them.
func (c *cluster) shutdown() {
	c.mu.Lock()
	clients := c.clients
	replicas := c.replicas
	c.mu.Unlock()
	for _, cl := range clients {
		cl.Stop()
	}
	for _, r := range replicas {
		if !r.down {
			r.node.Stop()
		}
	}
	c.stopping.Wait()
	if c.net != nil {
		_ = c.net.Close()
	}
	if c.inbox != nil {
		c.inbox.close()
	}
}

// noticeBoard records, per replica, the style of its latest completed
// switch and when it completed, from the engine observer.
type noticeBoard struct {
	mu      sync.Mutex
	done    map[string]styleAt
	changed chan struct{}
}

type styleAt struct {
	style replication.Style
	at    time.Time
}

func newNoticeBoard() *noticeBoard {
	return &noticeBoard{done: make(map[string]styleAt), changed: make(chan struct{}, 1)}
}

// observe is the engines' observer; it runs on engine goroutines and
// must not block.
func (b *noticeBoard) observe(n replication.Notice) {
	if n.Kind != replication.NoticeSwitchDone {
		return
	}
	b.mu.Lock()
	b.done[n.Addr] = styleAt{style: n.Style, at: time.Now()}
	b.mu.Unlock()
	select {
	case b.changed <- struct{}{}:
	default:
	}
}

// awaitStyle waits until every named replica completed a switch to
// target after since, and returns the latest completion instant.
func (b *noticeBoard) awaitStyle(addrs []string, target replication.Style, since, deadline time.Time) (time.Time, error) {
	timer := time.NewTimer(time.Until(deadline))
	defer timer.Stop()
	for {
		b.mu.Lock()
		var last time.Time
		all := true
		for _, a := range addrs {
			d, ok := b.done[a]
			if !ok || d.style != target || d.at.Before(since) {
				all = false
				break
			}
			if d.at.After(last) {
				last = d.at
			}
		}
		b.mu.Unlock()
		if all {
			return last, nil
		}
		select {
		case <-b.changed:
		case <-timer.C:
			return time.Time{}, fmt.Errorf("switch to %s did not complete on every live replica", target)
		}
	}
}
