//! Testbed assembly (Figure 5): a master node M1 (gateway, workload
//! manager, memcached, control plane) and worker nodes M2–M5, all
//! connected to a 10 G switch.

use std::sync::Arc;

use lnic_host::{HostBackend, HostParams};
use lnic_kv::{KvServer, KvServerParams};
use lnic_net::params::{LinkParams, SwitchParams};
use lnic_net::switch::Switch;
use lnic_net::{Ipv4Addr, MacAddr, SocketAddr};
use lnic_nic::{Nic, NicParams, ServiceEndpoint};
use lnic_raft::{NodeId, RaftConfig, RaftNet, RaftNode, StartNode};
use lnic_sim::prelude::*;

use crate::deploy::BackendKind;
use crate::failover::{FailoverConfig, FailoverController, StartFailover};
use crate::gateway::{Gateway, GatewayParams, WorkerEndpoint};
use crate::gwtier::{ShardMap, ShardRouter, StartTier, TierConfig, TierController};
use crate::repkv::{RepKvReplica, StartReplica};

/// The logical service id workers use to reach the memcached server.
pub use lnic_workloads::kv::KV_SERVICE;

/// Testbed configuration.
#[derive(Clone, Debug)]
pub struct TestbedConfig {
    /// Simulation seed.
    pub seed: u64,
    /// Number of worker nodes (the paper's testbed has 4).
    pub workers: usize,
    /// Which backend the workers run.
    pub backend: BackendKind,
    /// Worker threads for host backends (1 or 56 in §6).
    pub worker_threads: usize,
    /// SmartNIC parameters (λ-NIC backend).
    pub nic: NicParams,
    /// Data-plane link parameters.
    pub link: LinkParams,
    /// Switch parameters.
    pub switch: SwitchParams,
    /// Gateway parameters.
    pub gateway: GatewayParams,
    /// Spin up a 3-node Raft control plane (etcd).
    pub control_plane: bool,
    /// Hybrid workers (λ-NIC backend only): put a bare-metal host
    /// backend behind each SmartNIC; packets whose workload id matches
    /// no NIC lambda are punted across PCIe and served by the host
    /// (Listing 3's `send_pkt_to_host` / Figure 4).
    pub hybrid: bool,
    /// Attach an online [`InvariantChecker`] to the simulation's trace
    /// stream (default on). The checker panics on the first violated
    /// invariant — clock monotonicity, request conservation, per-core
    /// run-to-completion, WFQ weight bounds, memory cost consistency —
    /// so every test run doubles as a correctness gate.
    pub check_invariants: bool,
}

impl TestbedConfig {
    /// The paper's testbed with the given backend.
    pub fn new(backend: BackendKind) -> Self {
        TestbedConfig {
            seed: 42,
            workers: 4,
            backend,
            worker_threads: 56,
            nic: NicParams::agilio_cx(),
            link: LinkParams::ten_gbps(),
            switch: SwitchParams::default(),
            gateway: GatewayParams::default(),
            control_plane: false,
            hybrid: false,
            check_invariants: true,
        }
    }

    /// Sets the seed.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Sets the worker count.
    pub fn workers(mut self, n: usize) -> Self {
        self.workers = n;
        self
    }

    /// Sets host worker threads.
    pub fn worker_threads(mut self, n: usize) -> Self {
        self.worker_threads = n;
        self
    }

    /// Enables the Raft control plane.
    pub fn with_control_plane(mut self) -> Self {
        self.control_plane = true;
        self
    }

    /// Enables hybrid NIC+host workers.
    pub fn hybrid(mut self) -> Self {
        self.hybrid = true;
        self
    }

    /// Disables the online invariant checker (perf baselines that want
    /// zero tracing overhead).
    pub fn without_invariant_checks(mut self) -> Self {
        self.check_invariants = false;
        self
    }
}

/// One assembled worker node.
#[derive(Clone, Copy, Debug)]
pub struct Worker {
    /// The serving component (a [`Nic`] or [`HostBackend`]).
    pub component: ComponentId,
    /// Worker MAC.
    pub mac: MacAddr,
    /// Worker UDP endpoint for lambda requests.
    pub addr: SocketAddr,
}

impl Worker {
    /// The gateway-visible endpoint of this worker.
    pub fn endpoint(&self) -> WorkerEndpoint {
        WorkerEndpoint {
            mac: self.mac,
            addr: self.addr,
        }
    }
}

/// The assembled testbed.
pub struct Testbed {
    /// The simulation everything runs in.
    pub sim: Simulation,
    /// The backend kind workers run.
    pub backend: BackendKind,
    /// Gateway component.
    pub gateway: ComponentId,
    /// Switch component.
    pub switch: ComponentId,
    /// memcached server component (on M1).
    pub kv_server: ComponentId,
    /// Worker nodes.
    pub workers: Vec<Worker>,
    /// Per-worker host backend behind the NIC (hybrid testbeds only).
    pub worker_hosts: Vec<Option<ComponentId>>,
    /// Raft control-plane nodes (empty unless enabled).
    pub raft_nodes: Vec<ComponentId>,
    /// Raft fabric (when enabled).
    pub raft_net: Option<ComponentId>,
    /// Every gateway shard, indexed by gateway id: entry 0 is the
    /// primary [`Testbed::gateway`]; extras are added by
    /// [`Testbed::enable_gateway_tier`].
    pub gateways: Vec<ComponentId>,
    /// `(uplink, switch port)` per gateway shard.
    gateway_ports: Vec<(usize, usize)>,
    /// `(uplink, switch port)` per worker.
    worker_ports: Vec<(usize, usize)>,
    /// The tier's client-facing [`ShardRouter`] (set by
    /// [`Testbed::enable_gateway_tier`]).
    pub tier_router: Option<ComponentId>,
    /// The tier's membership [`TierController`] (set by
    /// [`Testbed::enable_gateway_tier`]).
    pub tier_controller: Option<ComponentId>,
    /// Failover controller (set by [`Testbed::enable_failover`]).
    pub failover: Option<ComponentId>,
    /// Replicated-KV replicas by worker index (set by
    /// [`Testbed::enable_replicated_kv`]; empty otherwise). Crash and
    /// restart faults aimed at a hosting worker are co-injected here —
    /// the replica shares its NIC's fate.
    pub repkv_replicas: Vec<ComponentId>,
    /// `(workload, worker index)` placements registered at setup, the
    /// home map handed to the failover controller.
    placements: Vec<(u32, usize)>,
}

/// MAC/IP plan: gateway is node 1, the kv server node 9, workers node
/// 2..
fn worker_identity(i: usize) -> (MacAddr, SocketAddr) {
    (
        MacAddr::from_index(10 + i as u32),
        SocketAddr::new(Ipv4Addr::node(2 + i as u8), 8000),
    )
}

const KV_MAC_INDEX: u32 = 9;

/// Global seed shift for CI seed sweeps. `LNIC_SEED_OFFSET=n` moves
/// every testbed onto a fresh seed (`configured + n`) without editing
/// each test — the whole suite re-runs its stochastic behaviour under
/// a new roll of the dice. Unset or `0` leaves seeds exactly as
/// configured (required by the pinned golden-trace tests).
pub fn seed_offset() -> u64 {
    std::env::var("LNIC_SEED_OFFSET")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(0)
}

/// Builds the testbed.
///
/// Every endpoint's uplink is the switch. Its ports are numbered in
/// attach order, which is the fault plan's link table: 0 the gateway
/// uplink, 1 its switch port, 2 and 3 the kv server's, then `4 + 2i`
/// and `5 + 2i` for worker `i`, then each hybrid host's uplink.
///
/// # Panics
///
/// Panics if `config.workers` is zero.
pub fn build_testbed(config: TestbedConfig) -> Testbed {
    assert!(config.workers > 0, "at least one worker required");
    let mut sim = Simulation::new(config.seed.wrapping_add(seed_offset()));
    if config.check_invariants {
        sim.add_trace_sink(Box::new(InvariantChecker::new()));
    }

    let switch = sim.add(Switch::new(config.switch));
    let gateway = sim.add(Gateway::new(config.gateway.clone(), switch));
    let kv_server = sim.add(KvServer::new(KvServerParams::default(), switch));
    let kv_mac = MacAddr::from_index(KV_MAC_INDEX);
    let kv_addr = SocketAddr::new(Ipv4Addr::node(9), 11211);
    let kv_endpoint_nic = ServiceEndpoint {
        mac: kv_mac,
        addr: kv_addr,
    };
    let kv_endpoint_host = lnic_host::ServiceEndpoint {
        mac: kv_mac,
        addr: kv_addr,
    };

    // Workers.
    let mut workers = Vec::with_capacity(config.workers);
    let mut worker_hosts = Vec::with_capacity(config.workers);
    for i in 0..config.workers {
        let (mac, addr) = worker_identity(i);
        let host_backend = |params| {
            HostBackend::new(params, mac, addr.ip, switch)
                .with_service(KV_SERVICE, kv_endpoint_host)
        };
        let component = match config.backend {
            BackendKind::Nic => {
                let mut nic = Nic::new(config.nic.clone(), mac, addr.ip, switch)
                    .with_service(KV_SERVICE, kv_endpoint_nic);
                if config.hybrid {
                    // The host OS behind this NIC, with its own path to
                    // the switch for responses.
                    let host = sim.add(host_backend(HostParams::bare_metal(config.worker_threads)));
                    nic = nic.with_host(host);
                    worker_hosts.push(Some(host));
                } else {
                    worker_hosts.push(None);
                }
                sim.add(nic)
            }
            BackendKind::BareMetal => {
                worker_hosts.push(None);
                sim.add(host_backend(HostParams::bare_metal(config.worker_threads)))
            }
            BackendKind::Container => {
                worker_hosts.push(None);
                sim.add(host_backend(HostParams::container(config.worker_threads)))
            }
        };
        workers.push(Worker {
            component,
            mac,
            addr,
        });
    }
    let sw = sim.get_mut::<Switch>(switch).expect("switch exists");
    let gateway_ports = vec![sw.attach(gateway, config.gateway.mac, config.link)];
    sw.attach(kv_server, kv_mac, config.link);
    let worker_ports = workers
        .iter()
        .map(|w| sw.attach(w.component, w.mac, config.link))
        .collect();
    for &host in worker_hosts.iter().flatten() {
        sw.attach_sender(host, config.link);
    }

    // Control plane: a 3-node Raft cluster (M1 plus two workers'
    // hosts), on its own management fabric.
    let (raft_nodes, raft_net) = if config.control_plane {
        let net = sim.add(RaftNet::new(
            Vec::new(),
            SimDuration::from_micros(50),
            SimDuration::from_micros(500),
            0.0,
        ));
        let nodes: Vec<ComponentId> = (0..3)
            .map(|i| sim.add(RaftNode::new(NodeId(i), 3, net, RaftConfig::default())))
            .collect();
        *sim.get_mut::<RaftNet>(net).expect("net exists") = RaftNet::new(
            nodes.clone(),
            SimDuration::from_micros(50),
            SimDuration::from_micros(500),
            0.0,
        );
        for &n in &nodes {
            sim.post(n, SimDuration::ZERO, StartNode);
        }
        (nodes, Some(net))
    } else {
        (Vec::new(), None)
    };

    Testbed {
        sim,
        backend: config.backend,
        gateway,
        switch,
        kv_server,
        workers,
        worker_hosts,
        raft_nodes,
        raft_net,
        gateways: vec![gateway],
        gateway_ports,
        worker_ports,
        tier_router: None,
        tier_controller: None,
        failover: None,
        repkv_replicas: Vec::new(),
        placements: Vec::new(),
    }
}

impl Testbed {
    /// Deploys `program` to every worker instantly (experiment setup
    /// path; the timed pipeline lives in
    /// [`crate::manager::WorkloadManager`]) and registers placements for
    /// every workload, spread round-robin across workers.
    pub fn preload(&mut self, program: &Arc<lnic_mlambda::program::Program>) {
        self.preload_with(program, &lnic_mlambda::compile::CompileOptions::optimized());
    }

    /// Like [`Testbed::preload`], with explicit compiler options
    /// (ablation studies compile with passes disabled).
    pub fn preload_with(
        &mut self,
        program: &Arc<lnic_mlambda::program::Program>,
        opts: &lnic_mlambda::compile::CompileOptions,
    ) {
        use lnic_mlambda::compile::compile;
        let firmware = Arc::new(compile(program, opts).expect("program compiles"));
        // Host workers share one copy of the program.
        let host_program = match self.backend {
            BackendKind::Nic => None,
            BackendKind::BareMetal | BackendKind::Container => {
                Some(Arc::new(firmware.program.clone()))
            }
        };
        for worker in &self.workers {
            match &host_program {
                None => {
                    self.sim
                        .get_mut::<Nic>(worker.component)
                        .expect("worker is a NIC")
                        .install_now(Arc::clone(&firmware));
                }
                Some(program) => {
                    self.sim.post(
                        worker.component,
                        SimDuration::ZERO,
                        lnic_host::DeployProgram::unfenced(Arc::clone(program)),
                    );
                }
            }
        }
        // Placements: all workloads on all workers; every gateway shard
        // targets worker (id % workers) for spread.
        let gateways = self.gateways.clone();
        for (i, lambda) in firmware.program.lambdas.iter().enumerate() {
            let worker_index = i % self.workers.len();
            let worker = &self.workers[worker_index];
            let endpoint = worker.endpoint();
            for &gateway in &gateways {
                let gw = self
                    .sim
                    .get_mut::<Gateway>(gateway)
                    .expect("gateway exists");
                gw.place(lambda.id.0, endpoint);
            }
            self.placements.push((lambda.id.0, worker_index));
        }
    }

    /// Re-images a single worker with `program`'s compiled firmware.
    ///
    /// A crashed NIC loses its volatile instruction store, so a rack
    /// that comes back from a power event black-holes requests until
    /// the deployment controller pushes firmware again. Disaster
    /// drills call this after the restart fault fires to model that
    /// re-imaging step.
    ///
    /// # Panics
    ///
    /// Panics when `worker` is out of range or the program fails to
    /// compile.
    pub fn redeploy_worker(
        &mut self,
        worker: usize,
        program: &Arc<lnic_mlambda::program::Program>,
    ) {
        use lnic_mlambda::compile::compile;
        let opts = lnic_mlambda::compile::CompileOptions::optimized();
        let firmware = Arc::new(compile(program, &opts).expect("program compiles"));
        let worker = &self.workers[worker];
        match self.backend {
            BackendKind::Nic => {
                self.sim
                    .get_mut::<Nic>(worker.component)
                    .expect("worker is a NIC")
                    .install_now(firmware);
            }
            BackendKind::BareMetal | BackendKind::Container => {
                self.sim.post(
                    worker.component,
                    SimDuration::ZERO,
                    lnic_host::DeployProgram::unfenced(Arc::new(firmware.program.clone())),
                );
            }
        }
    }

    /// Hybrid testbeds: deploys `nic_program` to the SmartNICs and
    /// `host_program` to the host backends behind them, placing every
    /// workload of both programs at the workers' (shared) endpoint. NIC
    /// workloads are served on the NPUs; host workloads are punted
    /// across PCIe (Listing 3).
    ///
    /// # Panics
    ///
    /// Panics when the testbed was not built with
    /// [`TestbedConfig::hybrid`].
    pub fn preload_split(
        &mut self,
        nic_program: &Arc<lnic_mlambda::program::Program>,
        host_program: &Arc<lnic_mlambda::program::Program>,
    ) {
        use lnic_mlambda::compile::{compile, CompileOptions};
        let firmware = Arc::new(
            compile(nic_program, &CompileOptions::optimized()).expect("nic program compiles"),
        );
        for (worker, host) in self.workers.iter().zip(&self.worker_hosts) {
            let host = host.expect("preload_split requires a hybrid testbed");
            self.sim
                .get_mut::<Nic>(worker.component)
                .expect("worker is a NIC")
                .install_now(Arc::clone(&firmware));
            self.sim.post(
                host,
                SimDuration::ZERO,
                lnic_host::DeployProgram::unfenced(Arc::clone(host_program)),
            );
        }
        let gateways = self.gateways.clone();
        let mut placed = Vec::new();
        for lambda in firmware
            .program
            .lambdas
            .iter()
            .chain(host_program.lambdas.iter())
        {
            for &gateway in &gateways {
                self.sim
                    .get_mut::<Gateway>(gateway)
                    .expect("gateway exists")
                    .place(lambda.id.0, self.workers[0].endpoint());
            }
            placed.push((lambda.id.0, 0));
        }
        self.placements.extend(placed);
    }

    /// Places a workload on a specific worker (at every gateway shard).
    pub fn place(&mut self, workload_id: u32, worker_index: usize) {
        let endpoint = self.workers[worker_index].endpoint();
        let gateways = self.gateways.clone();
        for &gateway in &gateways {
            self.sim
                .get_mut::<Gateway>(gateway)
                .expect("gateway exists")
                .place(workload_id, endpoint);
        }
        self.placements.retain(|&(wid, _)| wid != workload_id);
        self.placements.push((workload_id, worker_index));
    }

    /// Adds a replica of `workload_id` on `worker_index` (on top of any
    /// existing placement, at every gateway shard); the gateway
    /// load-balances across replicas and needs at least two to hedge.
    pub fn place_replica(&mut self, workload_id: u32, worker_index: usize) {
        let endpoint = self.workers[worker_index].endpoint();
        let gateways = self.gateways.clone();
        for &gateway in &gateways {
            self.sim
                .get_mut::<Gateway>(gateway)
                .expect("gateway exists")
                .add_replica(workload_id, endpoint);
        }
    }

    /// Turns on multi-tenant virtualization across the testbed: the
    /// gateway stamps and quota-gates by the directory (announcing the
    /// assignments as `TenantAssign` events at t=0), and every NIC
    /// worker schedules hierarchically, enforces thread quotas, and
    /// virtualizes its instruction store behind the firmware cache.
    /// Host-backend workers ignore tenancy (they model the isolated
    /// per-tenant machines of the static baseline).
    pub fn enable_tenancy(
        &mut self,
        dir: Arc<lnic_tenant::TenantDirectory>,
        cfg: lnic_tenant::TenancyConfig,
    ) {
        if self.backend == BackendKind::Nic {
            for worker in &self.workers {
                self.sim
                    .get_mut::<Nic>(worker.component)
                    .expect("worker is a NIC")
                    .enable_tenancy(Arc::clone(&dir), cfg);
            }
        }
        // Extra gateway shards share the directory silently — only the
        // primary announces `TenantAssign` events (the checker's
        // ownership ground truth must be stated exactly once).
        let extras: Vec<ComponentId> = self.gateways.iter().skip(1).copied().collect();
        for gateway in extras {
            self.sim
                .get_mut::<Gateway>(gateway)
                .expect("gateway exists")
                .adopt_tenant_directory(Arc::clone(&dir));
        }
        self.sim.post(
            self.gateway,
            SimDuration::ZERO,
            crate::gateway::RegisterTenants { dir },
        );
    }

    /// `(uplink, switch port)`: the switch port indices of worker
    /// `worker`'s two links.
    pub fn worker_ports(&self, worker: usize) -> (usize, usize) {
        self.worker_ports[worker]
    }

    /// `(uplink, switch port)`: the switch port indices of gateway shard
    /// `gateway`'s two links.
    pub fn gateway_ports(&self, gateway: usize) -> (usize, usize) {
        self.gateway_ports[gateway]
    }

    /// Sends `fault`, a link fault on switch port `port`, to the switch
    /// `delay` from now.
    fn port_fault<M: Message>(&mut self, delay: SimDuration, port: usize, fault: M) {
        let switch = self.sim.get::<Switch>(self.switch).expect("switch exists");
        assert!(port < switch.port_count(), "link {port} out of range");
        self.sim.post(self.switch, delay, fault);
    }

    /// Darkens switch port `port` for `duration`, from `delay` on.
    fn link_down(&mut self, port: usize, delay: SimDuration, duration: SimDuration) {
        self.port_fault(delay, port, lnic_sim::fault::LinkDown { port, duration });
    }

    /// Schedules every event of `plan` into the simulation, resolving
    /// worker indices to worker components and link indices to switch
    /// ports (see [`build_testbed`] for the numbering). Event times are
    /// absolute; call this before running (an event already in the past
    /// fires immediately).
    ///
    /// # Panics
    ///
    /// Panics when a worker or link index is out of range.
    pub fn inject_faults(&mut self, plan: &FaultPlan) {
        use lnic_sim::fault::{Corrupt, Crash, Duplicate, FaultEvent, LossBurst, NetCutFrom};
        use lnic_sim::fault::{Reorder, Restart, StallFor};
        for fault in plan.events() {
            let delay = fault.at.saturating_duration_since(self.sim.now());
            match fault.event {
                FaultEvent::NicCrash { worker } => {
                    self.sim.post(self.workers[worker].component, delay, Crash);
                    if let Some(&replica) = self.repkv_replicas.get(worker) {
                        self.sim.post(replica, delay, Crash);
                    }
                }
                FaultEvent::NicRestart { worker } => {
                    self.sim
                        .post(self.workers[worker].component, delay, Restart);
                    if let Some(&replica) = self.repkv_replicas.get(worker) {
                        self.sim.post(replica, delay, Restart);
                    }
                }
                FaultEvent::BackendStall { worker, duration } => {
                    self.sim
                        .post(self.workers[worker].component, delay, StallFor(duration));
                }
                FaultEvent::LinkFlap { link, duration } => {
                    self.link_down(link, delay, duration);
                }
                FaultEvent::LossBurst {
                    link: port,
                    duration,
                    prob,
                } => {
                    let burst = LossBurst {
                        port,
                        duration,
                        prob,
                    };
                    self.port_fault(delay, port, burst);
                }
                FaultEvent::Slowdown {
                    worker,
                    factor,
                    duration,
                } => {
                    self.sim.post(
                        self.workers[worker].component,
                        delay,
                        lnic_sim::fault::Slowdown { factor, duration },
                    );
                }
                FaultEvent::Reorder {
                    link: port,
                    duration,
                    spread,
                } => {
                    let reorder = Reorder {
                        port,
                        duration,
                        spread,
                    };
                    self.port_fault(delay, port, reorder);
                }
                FaultEvent::Duplicate {
                    link: port,
                    duration,
                    prob,
                } => {
                    let duplicate = Duplicate {
                        port,
                        duration,
                        prob,
                    };
                    self.port_fault(delay, port, duplicate);
                }
                FaultEvent::Corrupt {
                    link: port,
                    duration,
                    prob,
                } => {
                    let corrupt = Corrupt {
                        port,
                        duration,
                        prob,
                    };
                    self.port_fault(delay, port, corrupt);
                }
                FaultEvent::Partition { groups, duration } => {
                    // Down the severed workers' uplink and switch port:
                    // every data frame they send or receive blackholes,
                    // including frames from same-side peers (the switch
                    // is a single star, so a severed worker is dark).
                    let severed: Vec<usize> = (0..self.workers.len())
                        .filter(|&i| groups & (1 << i) != 0)
                        .collect();
                    for &i in &severed {
                        let (uplink, port) = self.worker_ports(i);
                        self.link_down(uplink, delay, duration);
                        self.link_down(port, delay, duration);
                    }
                    // Direct control traffic (heartbeats, lease grants,
                    // acks) does not ride the links; cut it explicitly
                    // in both directions.
                    if let Some(controller) = self.failover {
                        let peers: Vec<ComponentId> =
                            severed.iter().map(|&i| self.workers[i].component).collect();
                        self.sim
                            .post(controller, delay, NetCutFrom { peers, duration });
                        for &i in &severed {
                            self.sim.post(
                                self.workers[i].component,
                                delay,
                                NetCutFrom {
                                    peers: vec![controller],
                                    duration,
                                },
                            );
                        }
                    }
                }
                FaultEvent::AsymLink { from, to, duration } => {
                    if from == 0 {
                        // Control plane -> worker: the worker's switch
                        // port goes dark (it hears nobody), but its
                        // uplink still carries frames out.
                        let j = to.checked_sub(1).expect("asym_link endpoints differ");
                        self.link_down(self.worker_ports(j).1, delay, duration);
                        if let Some(controller) = self.failover {
                            self.sim.post(
                                self.workers[j].component,
                                delay,
                                NetCutFrom {
                                    peers: vec![controller],
                                    duration,
                                },
                            );
                        }
                    } else {
                        // Worker -> control plane (or worker -> worker):
                        // the sender's uplink goes dark; it still hears
                        // everything.
                        let i = from - 1;
                        self.link_down(self.worker_ports(i).0, delay, duration);
                        if to == 0 {
                            if let Some(controller) = self.failover {
                                self.sim.post(
                                    controller,
                                    delay,
                                    NetCutFrom {
                                        peers: vec![self.workers[i].component],
                                        duration,
                                    },
                                );
                            }
                        }
                    }
                }
                FaultEvent::GatewayCrash { gateway } => {
                    self.sim.post(self.gateways[gateway], delay, Crash);
                }
                FaultEvent::GatewayRestart { gateway } => {
                    self.sim.post(self.gateways[gateway], delay, Restart);
                }
                FaultEvent::GatewayPartition { gateway, duration } => {
                    // Data plane: blackhole the shard's uplink and
                    // switch port, so worker traffic dies both ways.
                    let (uplink, port) = self.gateway_ports(gateway);
                    self.link_down(uplink, delay, duration);
                    self.link_down(port, delay, duration);
                    // Control plane: routed submits, lease grants, and
                    // acks ride direct channels, not the links — cut
                    // them explicitly in both directions.
                    let gw = self.gateways[gateway];
                    let peers: Vec<ComponentId> = [self.tier_router, self.tier_controller]
                        .into_iter()
                        .flatten()
                        .collect();
                    for &p in &peers {
                        self.sim.post(
                            p,
                            delay,
                            NetCutFrom {
                                peers: vec![gw],
                                duration,
                            },
                        );
                    }
                    if !peers.is_empty() {
                        self.sim.post(gw, delay, NetCutFrom { peers, duration });
                    }
                }
                FaultEvent::ControllerCrash => {
                    let controller = self
                        .failover
                        .expect("ControllerCrash requires enable_failover");
                    self.sim.post(controller, delay, Crash);
                }
                FaultEvent::ControllerRestart => {
                    let controller = self
                        .failover
                        .expect("ControllerRestart requires enable_failover");
                    self.sim.post(controller, delay, Restart);
                }
                FaultEvent::GatewayRestartStorm {
                    first,
                    count,
                    stagger,
                    down,
                } => {
                    // Staggered crash/restart across `count` shards: the
                    // correlated rolling failure a bad config push or a
                    // kernel upgrade wave produces.
                    for k in 0..count {
                        let crash_at =
                            delay + SimDuration::from_nanos(stagger.as_nanos() * k as u64);
                        let gw = self.gateways[first + k];
                        self.sim.post(gw, crash_at, Crash);
                        self.sim.post(gw, crash_at + down, Restart);
                    }
                }
                FaultEvent::RackLoss {
                    gateway,
                    workers,
                    down,
                } => {
                    // One rack's power feed: the gateway shard and every
                    // worker behind it die in the same instant and come
                    // back together.
                    self.sim.post(self.gateways[gateway], delay, Crash);
                    self.sim.post(self.gateways[gateway], delay + down, Restart);
                    for i in 0..self.workers.len() {
                        if workers & (1 << i) == 0 {
                            continue;
                        }
                        self.sim.post(self.workers[i].component, delay, Crash);
                        self.sim
                            .post(self.workers[i].component, delay + down, Restart);
                        if let Some(&replica) = self.repkv_replicas.get(i) {
                            self.sim.post(replica, delay, Crash);
                            self.sim.post(replica, delay + down, Restart);
                        }
                    }
                }
                FaultEvent::TierControllerCrash => {
                    let controller = self
                        .tier_controller
                        .expect("TierControllerCrash requires enable_gateway_tier");
                    self.sim.post(controller, delay, Crash);
                }
                FaultEvent::TierControllerRestart => {
                    let controller = self
                        .tier_controller
                        .expect("TierControllerRestart requires enable_gateway_tier");
                    self.sim.post(controller, delay, Restart);
                }
            }
        }
    }

    /// Adds a [`FailoverController`] over the testbed's workers, seeds
    /// it with the placements registered so far (preload before calling
    /// this), and starts its heartbeat loop at time zero. Returns the
    /// controller's component id (also stored in [`Testbed::failover`]).
    ///
    /// The heartbeat ticks forever, so drive the simulation with
    /// `run_for`/`run_until` rather than `run` once failover is enabled.
    pub fn enable_failover(&mut self, cfg: FailoverConfig) -> ComponentId {
        let worker_table = self
            .workers
            .iter()
            .map(|w| (w.component, w.endpoint()))
            .collect();
        // A gateway tier enabled first: epoch/fencing commands broadcast
        // to every shard, not just the primary.
        let mut controller = FailoverController::new(cfg, self.gateways.clone(), worker_table);
        for &(workload_id, worker_index) in &self.placements {
            controller.track_placement(workload_id, worker_index);
        }
        let id = self.sim.add(controller);
        // Feed the controller every gateway's per-endpoint latency
        // stream so the fail-slow detector can see gray failures
        // heartbeats cannot.
        let gateways = self.gateways.clone();
        for &gateway in &gateways {
            self.sim
                .get_mut::<Gateway>(gateway)
                .expect("testbed gateway")
                .set_latency_observer(id);
        }
        self.sim.post(id, SimDuration::ZERO, StartFailover);
        self.failover = Some(id);
        id
    }

    /// Wires a 3-replica raft-backed KV service across the first three
    /// NIC workers: each worker's NIC gets a co-located
    /// [`RepKvReplica`] registered as the resident service for
    /// [`lnic_workloads::kv::REPKV_WORKLOAD_ID`], the gateway gets all
    /// three endpoints as replicas plus leadership-aware routing, and
    /// every replica's raft node is started at time zero (randomized
    /// election timers break the tie). Returns the replica component
    /// ids by raft node id.
    ///
    /// Replication traffic rides the data-plane links as `RdmaWrite`
    /// frames, so link faults (partitions, reorder, duplication,
    /// corruption) exercise raft exactly as they exercise requests;
    /// crash and restart faults aimed at workers 0–2 are co-injected
    /// into the corresponding replica by [`Testbed::inject_faults`].
    ///
    /// # Panics
    ///
    /// Panics unless the testbed runs the NIC backend with at least
    /// three workers.
    pub fn enable_replicated_kv(&mut self, cfg: RaftConfig) -> Vec<ComponentId> {
        use lnic_workloads::kv::{REPKV_SERVICE, REPKV_WORKLOAD_ID};
        assert!(
            self.backend == BackendKind::Nic,
            "replicated KV requires the NIC backend"
        );
        assert!(
            self.workers.len() >= 3,
            "replicated KV requires at least 3 workers"
        );
        let peers: Vec<(MacAddr, SocketAddr)> = (0..3).map(worker_identity).collect();
        let gateway = self.gateway;
        let mut replicas = Vec::with_capacity(3);
        for (i, &(mac, addr)) in peers.iter().enumerate() {
            let nic = self.workers[i].component;
            let replica = self.sim.add(RepKvReplica::new(
                i as u32,
                peers.clone(),
                gateway,
                nic,
                cfg,
            ));
            self.sim
                .get_mut::<Nic>(nic)
                .expect("worker is a NIC")
                .register_resident(REPKV_WORKLOAD_ID, replica);
            self.sim.post(replica, SimDuration::ZERO, StartReplica);
            let gw = self
                .sim
                .get_mut::<Gateway>(gateway)
                .expect("gateway exists");
            gw.add_replica(REPKV_WORKLOAD_ID, WorkerEndpoint { mac, addr });
            replicas.push(replica);
        }
        self.sim
            .get_mut::<Gateway>(gateway)
            .expect("gateway exists")
            .track_replicated(REPKV_WORKLOAD_ID, REPKV_SERVICE);
        self.repkv_replicas = replicas.clone();
        replicas
    }

    /// Installs the sharded gateway tier: `extra` additional gateway
    /// shards (ids `1..=extra`; the primary gateway is shard 0), a
    /// [`ShardRouter`] routing clients over an epoch-versioned
    /// consistent-hash map, and a [`TierController`] running the lease
    /// loop that deposes silent shards and re-admits healed ones.
    /// Returns `(router, controller)` (also stored in
    /// [`Testbed::tier_router`] / [`Testbed::tier_controller`]).
    ///
    /// Extra shards copy the primary's placement table and tenant
    /// directory at install time, so call this **after** `preload*`,
    /// [`Testbed::place`]-style setup, and
    /// [`Testbed::enable_tenancy`]. Each extra shard mints request ids
    /// in its own namespace (`gateway_id << 48`), keeping multi-shard
    /// traces attributable and the primary's id stream — and therefore
    /// all single-gateway goldens — byte-identical. If failover is
    /// enabled (before or after), epoch/fencing commands broadcast to
    /// every shard.
    ///
    /// The controller's heartbeat ticks forever: drive the simulation
    /// with `run_for`/`run_until` rather than `run`.
    ///
    /// `extra == 0` is allowed and builds a degenerate single-member
    /// tier over the primary gateway alone — the baseline arm the
    /// handoff benchmarks compare against (same router machinery, no
    /// shard to fail over to).
    ///
    /// # Panics
    ///
    /// Panics when called twice.
    pub fn enable_gateway_tier(
        &mut self,
        extra: usize,
        gw_params: GatewayParams,
        link: LinkParams,
        cfg: TierConfig,
    ) -> (ComponentId, ComponentId) {
        assert!(self.tier_router.is_none(), "gateway tier already enabled");
        let table = self
            .sim
            .get::<Gateway>(self.gateway)
            .expect("gateway exists")
            .placement_table();
        let tenant_dir = self
            .sim
            .get::<Gateway>(self.gateway)
            .expect("gateway exists")
            .tenant_directory();
        for g in 1..=extra {
            let mut params = gw_params.clone();
            params.mac = MacAddr::from_index(40 + g as u32);
            params.ip = Ipv4Addr::node(40 + g as u8);
            let mut shard = Gateway::new(params.clone(), self.switch).with_gateway_id(g as u32);
            for (wid, endpoints) in &table {
                for (k, &ep) in endpoints.iter().enumerate() {
                    if k == 0 {
                        shard.place(*wid, ep);
                    } else {
                        shard.add_replica(*wid, ep);
                    }
                }
            }
            if let Some(dir) = &tenant_dir {
                shard.adopt_tenant_directory(Arc::clone(dir));
            }
            if let Some(controller) = self.failover {
                shard.set_latency_observer(controller);
            }
            let shard_id = self.sim.add(shard);
            // Tier links go at the very end of the link table; the
            // documented indices of the original fabric are unchanged.
            let ports = self
                .sim
                .get_mut::<Switch>(self.switch)
                .expect("switch exists")
                .attach(shard_id, params.mac, link);
            self.gateways.push(shard_id);
            self.gateway_ports.push(ports);
            if let Some(controller) = self.failover {
                self.sim
                    .get_mut::<FailoverController>(controller)
                    .expect("failover controller exists")
                    .add_gateway(shard_id);
            }
        }
        let members: Vec<u32> = (0..self.gateways.len() as u32).collect();
        let map = Arc::new(ShardMap::new(1, &members, cfg.vnodes));
        let router = self.sim.add(ShardRouter::new(
            self.gateways.clone(),
            Arc::clone(&map),
            cfg,
        ));
        let controller = self
            .sim
            .add(TierController::new(cfg, self.gateways.clone(), router, map));
        self.sim.post(controller, SimDuration::ZERO, StartTier);
        self.tier_router = Some(router);
        self.tier_controller = Some(controller);
        (router, controller)
    }

    /// Signals end-of-run to every attached trace sink: the
    /// [`InvariantChecker`] runs its request-conservation accounting,
    /// JSONL sinks flush. Call after the drive loop when you want the
    /// end-of-run checks; in-stream invariants fire either way.
    pub fn finish_tracing(&mut self) {
        self.sim.finish_tracing();
    }
}
