//! Differential test: the verifier's copy of the data plane against
//! the data plane itself. `trace::best_entry` must select the entry
//! `FlowTable` selects, and `trace::apply_to_key` must rewrite a key
//! the way `apply_actions` rewrites the packet, up to its first output.
//! Both sides stay separate code until they are merged; this test pins
//! them together meanwhile.

use livesec_net::{FlowKey, Ipv4Net, MacAddr, Packet, PacketBuilder};
use livesec_openflow::{apply_actions, Action, FlowEntry, FlowTable, Match, OutPort, VlanMatch};
use livesec_verify::trace::{apply_to_key, best_entry};
use proptest::prelude::*;
use std::net::Ipv4Addr;

fn arb_mac() -> impl Strategy<Value = MacAddr> {
    // Tiny universes make matches, overlaps and ties likely.
    (0u64..2).prop_map(MacAddr::from_u64)
}

fn arb_ip() -> impl Strategy<Value = Ipv4Addr> {
    (0u32..4).prop_map(|v| Ipv4Addr::from(0x0a00_0000 | v))
}

fn arb_port() -> impl Strategy<Value = u16> {
    0u16..2
}

/// A match field that is set only a quarter of the time, so most
/// entries are wide enough to match most packets.
fn sometimes<S: Strategy>(inner: S) -> impl Strategy<Value = Option<S::Value>> {
    (0u8..4, inner).prop_map(|(roll, v)| (roll == 0).then_some(v))
}

fn arb_net() -> impl Strategy<Value = Ipv4Net> {
    (arb_ip(), 30u8..=32).prop_map(|(ip, len)| Ipv4Net::new(ip, len))
}

prop_compose! {
    fn arb_match()(
        in_port in sometimes(1u32..3),
        dl_src in sometimes(arb_mac()),
        dl_dst in sometimes(arb_mac()),
        dl_vlan in sometimes(prop_oneof![
            Just(VlanMatch::Untagged),
            (0u16..2).prop_map(VlanMatch::Tagged),
        ]),
        dl_type in sometimes(Just(0x0800u16)),
        nw_src in sometimes(arb_net()),
        nw_dst in sometimes(arb_net()),
        nw_proto in sometimes(prop_oneof![Just(6u8), Just(17u8)]),
        tp_src in sometimes(arb_port()),
        tp_dst in sometimes(arb_port()),
    ) -> Match {
        Match { in_port, dl_src, dl_dst, dl_vlan, dl_type, nw_src, nw_dst, nw_proto, tp_src, tp_dst }
    }
}

fn arb_action() -> impl Strategy<Value = Action> {
    prop_oneof![
        (1u32..4).prop_map(|p| Action::Output(OutPort::Physical(p))),
        Just(Action::Output(OutPort::InPort)),
        arb_mac().prop_map(Action::SetDlSrc),
        arb_mac().prop_map(Action::SetDlDst),
        arb_ip().prop_map(Action::SetNwSrc),
        arb_ip().prop_map(Action::SetNwDst),
        any::<u16>().prop_map(Action::SetTpSrc),
        any::<u16>().prop_map(Action::SetTpDst),
        (0u16..4096).prop_map(Action::SetVlan),
        Just(Action::StripVlan),
    ]
}

/// One table edit: a fresh entry, or an `ADD` that replaces an earlier
/// edit's entry (same match and priority, new actions).
#[derive(Clone, Debug)]
enum Edit {
    Add(Match, u16, Vec<Action>),
    Replace(usize, Vec<Action>),
}

fn arb_edit() -> impl Strategy<Value = Edit> {
    let actions = || proptest::collection::vec(arb_action(), 0..5);
    // Three priorities, so equal-priority ties are common.
    let add = || {
        (
            arb_match(),
            prop_oneof![Just(10u16), Just(20), Just(30)],
            actions(),
        )
            .prop_map(|(m, p, a)| Edit::Add(m, p, a))
    };
    prop_oneof![
        add(),
        add(),
        add(),
        (any::<usize>(), actions()).prop_map(|(i, a)| Edit::Replace(i, a)),
    ]
}

/// Builds the table through `insert_at`, one tick per edit.
fn build_table(edits: &[Edit]) -> FlowTable {
    let mut table = FlowTable::new();
    let mut added: Vec<(Match, u16)> = Vec::new();
    for (t, edit) in edits.iter().enumerate() {
        let (matcher, priority, actions) = match edit {
            Edit::Add(m, p, a) => {
                added.push((*m, *p));
                (*m, *p, a.clone())
            }
            Edit::Replace(_, _) if added.is_empty() => continue,
            Edit::Replace(i, a) => {
                let (m, p) = added[i % added.len()];
                (m, p, a.clone())
            }
        };
        table.insert_at(FlowEntry::new(matcher, actions, priority), t as u64);
    }
    table
}

prop_compose! {
    fn arb_packet()(
        tcp in any::<bool>(),
        src in arb_mac(),
        dst in arb_mac(),
        vlan in proptest::option::of(0u16..2),
        nw_src in arb_ip(),
        nw_dst in arb_ip(),
        tp_src in arb_port(),
        tp_dst in arb_port(),
    ) -> Packet {
        let b = if tcp { PacketBuilder::tcp(src, dst) } else { PacketBuilder::udp(src, dst) };
        let b = b.ips(nw_src, nw_dst).ports(tp_src, tp_dst);
        match vlan {
            Some(vid) => b.vlan(vid).build(),
            None => b.build(),
        }
    }
}

proptest! {
    #[test]
    fn verifier_selects_and_rewrites_like_the_data_plane(
        edits in proptest::collection::vec(arb_edit(), 0..24),
        pkts in proptest::collection::vec((arb_packet(), 1u32..3), 1..16),
    ) {
        let table = build_table(&edits);
        let ordered = table.entries_in_install_order();
        let owned: Vec<FlowEntry> = ordered.iter().map(|e| (*e).clone()).collect();
        for (pkt, in_port) in &pkts {
            let key = FlowKey::of(pkt).expect("an IPv4 packet has a key");

            // Selection: the same entry, by install-order position.
            let verifier = best_entry(&owned, *in_port, &key)
                .map(|b| owned.iter().position(|e| std::ptr::eq(e, b)).expect("from the slice"));
            let plane = table
                .peek(*in_port, &key)
                .map(|p| ordered.iter().position(|e| std::ptr::eq(*e, p)).expect("a live entry"));
            prop_assert_eq!(verifier, plane);

            // Rewriting: the key after the actions before the first
            // output is the key of the first packet out.
            let Some(entry) = table.peek(*in_port, &key) else { continue };
            let mut rewritten = key;
            for action in entry.actions.iter().take_while(|a| !matches!(a, Action::Output(_))) {
                apply_to_key(&mut rewritten, action);
            }
            let outcome = apply_actions(pkt, &entry.actions);
            match outcome.outputs.first() {
                Some((_, first)) => prop_assert_eq!(FlowKey::of(first), Some(rewritten)),
                None => prop_assert!(outcome.is_drop()),
            }
        }
    }
}
