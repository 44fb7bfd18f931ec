//! The switch fleet: emulated OpenFlow switches attached to their master
//! hives. Implements [`SwitchIo`] so the driver app can write to switches,
//! and pumps switch replies back into the platform as [`SwitchUpstream`]
//! messages — the full OpenFlow wire codec is exercised in both directions.

use std::collections::{BTreeMap, VecDeque};

use beehive_core::sync::Mutex;
use beehive_core::{HiveHandle, HiveId};
use beehive_openflow::{
    driver::SwitchUpstream, switch::SwitchModel, wire::OfMessage, FlowModCommand, Match, SwitchIo,
};

use crate::workload::FlowSpec;

struct SwitchSlot {
    model: SwitchModel,
    /// Controller-to-switch bytes awaiting processing.
    inbox: VecDeque<Vec<u8>>,
}

/// All emulated switches of a simulation.
pub struct SwitchFleet {
    slots: Mutex<BTreeMap<u64, SwitchSlot>>,
    masters: BTreeMap<u64, HiveId>,
    handles: BTreeMap<u32, HiveHandle>,
}

impl SwitchFleet {
    /// Builds a fleet: one switch per `(dpid, ports)`, each attached to its
    /// master hive's handle.
    pub fn new(
        switches: impl IntoIterator<Item = (u64, u16)>,
        masters: BTreeMap<u64, HiveId>,
        handles: impl IntoIterator<Item = HiveHandle>,
    ) -> Self {
        let slots = switches
            .into_iter()
            .map(|(dpid, ports)| {
                (
                    dpid,
                    SwitchSlot {
                        model: SwitchModel::new(dpid, ports),
                        inbox: VecDeque::new(),
                    },
                )
            })
            .collect();
        let handles = handles.into_iter().map(|h| (h.hive().0, h)).collect();
        SwitchFleet {
            slots: Mutex::new(slots),
            masters,
            handles,
        }
    }

    /// The master hive of `dpid`.
    pub fn master_of(&self, dpid: u64) -> Option<HiveId> {
        self.masters.get(&dpid).copied()
    }

    fn upstream(&self, dpid: u64, bytes: Vec<u8>) {
        let Some(master) = self.masters.get(&dpid) else {
            return;
        };
        let Some(handle) = self.handles.get(&master.0) else {
            return;
        };
        handle.emit(SwitchUpstream { dpid, bytes });
    }

    /// Starts the OpenFlow handshake for every switch (each sends HELLO to
    /// its master hive).
    pub fn connect_all(&self) {
        let dpids: Vec<u64> = self.slots.lock().keys().copied().collect();
        for dpid in dpids {
            let hello = self.slots.lock().get_mut(&dpid).unwrap().model.hello();
            self.upstream(dpid, hello);
        }
    }

    /// Processes pending controller-to-switch messages and sends replies
    /// upstream. Returns the number of messages processed.
    pub fn pump(&self) -> usize {
        let mut processed = 0;
        // Collect replies outside the lock to avoid holding it while the
        // handles enqueue (they're lock-free channels, but keep it tidy).
        let mut replies: Vec<(u64, Vec<u8>)> = Vec::new();
        {
            let mut slots = self.slots.lock();
            for (dpid, slot) in slots.iter_mut() {
                while let Some(bytes) = slot.inbox.pop_front() {
                    processed += 1;
                    if let Ok(outs) = slot.model.handle_bytes(&bytes) {
                        for out in outs {
                            replies.push((*dpid, out));
                        }
                    }
                }
            }
        }
        for (dpid, bytes) in replies {
            self.upstream(dpid, bytes);
        }
        processed
    }

    /// Installs default routes for the given flows directly (the paper's TE
    /// "installs default routes to ensure reachability"); goes through the
    /// switch's FLOW_MOD handling.
    pub fn install_default_routes(&self, flows: &[FlowSpec]) {
        let mut slots = self.slots.lock();
        for f in flows {
            if let Some(slot) = slots.get_mut(&f.switch) {
                slot.model.handle(OfMessage::FlowMod {
                    xid: 0,
                    match_: f.rule(),
                    cookie: 0,
                    command: FlowModCommand::Add,
                    idle_timeout: 0,
                    hard_timeout: 0,
                    priority: 1,
                    actions: vec![beehive_openflow::Action::Output {
                        port: 1,
                        max_len: 0,
                    }],
                });
            }
        }
    }

    /// Advances every switch's local clock and accounts `dt_secs` worth of
    /// traffic for each flow.
    pub fn advance_traffic(&self, flows: &[FlowSpec], dt_secs: u32) {
        let mut slots = self.slots.lock();
        for slot in slots.values_mut() {
            slot.model.advance_time(dt_secs);
        }
        for f in flows {
            if let Some(slot) = slots.get_mut(&f.switch) {
                let bytes = f.rate_bytes_per_sec * dt_secs as u64;
                let packets = (bytes / 1000).max(1);
                slot.model.account_traffic(&f.header(), packets, bytes);
            }
        }
    }

    /// Number of flows installed on `dpid` (inspection).
    pub fn flow_count(&self, dpid: u64) -> usize {
        self.slots
            .lock()
            .get(&dpid)
            .map(|s| s.model.flows().len())
            .unwrap_or(0)
    }

    /// Runs a packet through `dpid`'s table (for learning-switch scenarios):
    /// `Ok(out_ports)` or `Err(packet-in bytes already sent upstream)`.
    pub fn inject_packet(&self, dpid: u64, header: &Match, len: usize) -> Option<Vec<u16>> {
        let result = {
            let mut slots = self.slots.lock();
            let slot = slots.get_mut(&dpid)?;
            slot.model.process_packet(header, len)
        };
        match result {
            Ok(actions) => Some(
                actions
                    .into_iter()
                    .map(|beehive_openflow::Action::Output { port, .. }| port)
                    .collect(),
            ),
            Err(packet_in) => {
                self.upstream(dpid, packet_in.encode());
                Some(Vec::new())
            }
        }
    }

    /// All datapath ids.
    pub fn dpids(&self) -> Vec<u64> {
        self.slots.lock().keys().copied().collect()
    }

    /// Emulates a port status change on `dpid`: the switch notifies its
    /// master controller with an OpenFlow PORT_STATUS message
    /// (`reason`: 0 = add, 1 = delete, 2 = modify).
    pub fn set_port_status(&self, dpid: u64, port: u16, reason: u8) {
        let msg = beehive_openflow::wire::OfMessage::PortStatus {
            xid: 0,
            reason,
            desc: beehive_openflow::wire::PhyPort {
                port_no: port,
                hw_addr: [0; 6],
                name: format!("s{dpid}-eth{port}"),
            },
        };
        self.upstream(dpid, msg.encode());
    }
}

impl SwitchIo for SwitchFleet {
    fn send(&self, dpid: u64, bytes: Vec<u8>) {
        if let Some(slot) = self.slots.lock().get_mut(&dpid) {
            slot.inbox.push_back(bytes);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use beehive_core::prelude::*;
    use beehive_openflow::driver::{driver_app, FlowStatQuery, StatReply, DRIVER_APP};
    use std::sync::Arc;

    fn one_hive_fleet() -> (Hive, Arc<SwitchFleet>) {
        let mut hive = Hive::new(
            HiveConfig::standalone(HiveId(1)),
            Arc::new(SystemClock::new()),
            Box::new(Loopback::new(HiveId(1))),
        );
        let masters: BTreeMap<u64, HiveId> = [(1u64, HiveId(1)), (2, HiveId(1))].into();
        let fleet = Arc::new(SwitchFleet::new(
            vec![(1u64, 4u16), (2, 4)],
            masters,
            vec![hive.handle()],
        ));
        hive.install(driver_app(fleet.clone()));
        (hive, fleet)
    }

    fn settle(hive: &mut Hive, fleet: &SwitchFleet) {
        for _ in 0..100 {
            let w = hive.step() + fleet.pump();
            if w == 0 {
                break;
            }
        }
    }

    #[test]
    fn handshake_creates_driver_bees_per_switch() {
        let (mut hive, fleet) = one_hive_fleet();
        fleet.connect_all();
        settle(&mut hive, &fleet);
        assert_eq!(hive.local_bee_count(DRIVER_APP), 2);
    }

    #[test]
    fn stats_roundtrip_through_fleet() {
        let (mut hive, fleet) = one_hive_fleet();
        fleet.connect_all();
        settle(&mut hive, &fleet);

        let flows = crate::workload::generate_flows(
            &[1, 2],
            &crate::workload::WorkloadConfig {
                flows_per_switch: 5,
                ..Default::default()
            },
        );
        fleet.install_default_routes(&flows);
        assert_eq!(fleet.flow_count(1), 5);
        fleet.advance_traffic(&flows, 2);

        let seen = Arc::new(Mutex::new(Vec::new()));
        let seen2 = seen.clone();
        hive.install(
            App::builder("sink")
                .handle::<StatReply>(
                    |m| Mapped::cell("x", m.switch.to_string()),
                    move |m, _| {
                        seen2.lock().push((m.switch, m.flows.len()));
                        Ok(())
                    },
                )
                .build(),
        );
        hive.emit(FlowStatQuery { switch: 1 });
        settle(&mut hive, &fleet);
        assert_eq!(seen.lock().clone(), vec![(1, 5)]);
    }

    #[test]
    fn port_status_reaches_the_platform() {
        use beehive_openflow::driver::PortStatusEvent;
        let (mut hive, fleet) = one_hive_fleet();
        fleet.connect_all();
        settle(&mut hive, &fleet);
        let seen = Arc::new(Mutex::new(Vec::new()));
        let s2 = seen.clone();
        hive.install(
            App::builder("ps-sink")
                .handle::<PortStatusEvent>(
                    |m| Mapped::cell("x", m.switch.to_string()),
                    move |m, _| {
                        s2.lock().push((m.switch, m.port, m.reason));
                        Ok(())
                    },
                )
                .build(),
        );
        fleet.set_port_status(1, 3, 1); // port 3 down
        settle(&mut hive, &fleet);
        assert_eq!(seen.lock().clone(), vec![(1, 3, 1)]);
    }

    #[test]
    fn traffic_accounting_reflects_rates() {
        let (mut hive, fleet) = one_hive_fleet();
        fleet.connect_all();
        settle(&mut hive, &fleet);
        let flows = vec![FlowSpec {
            switch: 1,
            nw_src: 10,
            nw_dst: 20,
            rate_bytes_per_sec: 500,
            elephant: false,
        }];
        fleet.install_default_routes(&flows);
        fleet.advance_traffic(&flows, 3);
        // 3 seconds at 500 B/s.
        let slots = fleet.slots.lock();
        assert_eq!(slots[&1].model.flows()[0].byte_count, 1500);
    }
}
