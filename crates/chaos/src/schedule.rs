//! Failure schedules: the event vocabulary and its compact string form.
//!
//! A schedule is a `;`-separated list of events, each with an injection
//! instant in simulated milliseconds:
//!
//! ```text
//! crash:g1@2500            group 1 crashes at t = 2.5 s
//! storm:x8@1000+4000       straggler storm ×8 during [1.0 s, 5.0 s)
//! outage:s0@2000+3000      checkpoint server 0 down during [2.0 s, 5.0 s)
//! slow:n3x4@1500+2500      node 3's links ×4 slower during [1.5 s, 4.0 s)
//! torn:n2x3@1800           node 2's next 3 image writes tear mid-transfer
//! corrupt:g1@2500          flip a bit in group 1's newest committed image,
//!                          then crash it (restart must fall back)
//! crashckpt:g1p1@2000      group 1 dies during its next checkpoint, halfway
//!                          through the image write (phase 0|1|2)
//! replica:g1@1500          group 1's held replica copies evaporate, then a
//!                          rebuild pass re-replicates (restore backend)
//! replica:g1p1@1500        same, but every rebuild push fails: the pass
//!                          must degrade typed, never abort (phase 0|1)
//! ```
//!
//! The string form is what `gcrsim chaos --schedule` accepts, so a
//! shrunken failing schedule is directly replayable.

/// One injected fault.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ChaosEvent {
    /// All ranks of a group fail at `at_ms` and are recovered via the
    /// group-local restart protocol. `group` is reduced modulo the run's
    /// group count.
    Crash {
        /// Injection instant (simulated ms).
        at_ms: u64,
        /// Target group (mod group count).
        group: u64,
    },
    /// Straggler storm: coordination stragglers become `factor`× more
    /// likely and `factor`× longer for `dur_ms`.
    Storm {
        /// Start instant (simulated ms).
        at_ms: u64,
        /// Duration (ms).
        dur_ms: u64,
        /// Multiplier (≥ 2).
        factor: u64,
    },
    /// A remote checkpoint server is unreachable for `dur_ms`; clients
    /// fail over deterministically to the next live server.
    Outage {
        /// Start instant (simulated ms).
        at_ms: u64,
        /// Duration (ms).
        dur_ms: u64,
        /// Target server (mod server count).
        server: u64,
    },
    /// A node's links degrade by `factor`× for `dur_ms` (delayed/burst
    /// link behaviour).
    Slow {
        /// Start instant (simulated ms).
        at_ms: u64,
        /// Duration (ms).
        dur_ms: u64,
        /// Target node (mod endpoint count).
        node: u64,
        /// Slowdown multiplier (≥ 2).
        factor: u64,
    },
    /// A node's next `count` checkpoint-image writes tear: half the bytes
    /// reach the server, then the transfer dies. The durable store must
    /// record the failure and abort (or retry past) the generation.
    TornWrite {
        /// Injection instant (simulated ms).
        at_ms: u64,
        /// Target node (mod endpoint count).
        node: u64,
        /// How many consecutive writes tear (consumed as writes happen).
        count: u64,
    },
    /// Flip a bit in one image of the target group's newest **committed**
    /// generation, then crash the group: restart must detect the digest
    /// mismatch and fall back to an older committed generation.
    CorruptImage {
        /// Injection instant (simulated ms).
        at_ms: u64,
        /// Target group (mod group count).
        group: u64,
    },
    /// The target group dies *during* its next checkpoint wave, at the
    /// given phase: `0` before the image write, `1` halfway through it,
    /// `2` after every write but before the commit record. The pending
    /// generation must abort and recovery must restart from the last
    /// committed one.
    CrashCkpt {
        /// Injection instant (simulated ms; the trap arms here and fires
        /// at the group's next wave).
        at_ms: u64,
        /// Target group (mod group count).
        group: u64,
        /// Crash phase (0, 1 or 2).
        phase: u64,
    },
    /// Replica loss (restore backend only; a no-op under the disk
    /// backend): every replica copy held in the target group's peer
    /// memory evaporates at `at_ms`, then a re-replication (rebuild)
    /// pass runs. With `crash_phase` set, rebuild pushes are sabotaged:
    /// phase 0 injects one transient push fault (the bounded retry must
    /// recover), phase 1 fails every push (the pass must degrade to the
    /// typed `DegradedRedundancy`, never abort).
    Replica {
        /// Injection instant (simulated ms).
        at_ms: u64,
        /// Target group (mod group count).
        group: u64,
        /// Rebuild-phase crash trap (`None`, or 0|1).
        crash_phase: Option<u64>,
    },
}

impl ChaosEvent {
    /// The injection instant in simulated milliseconds.
    pub fn at_ms(&self) -> u64 {
        match *self {
            ChaosEvent::Crash { at_ms, .. }
            | ChaosEvent::Storm { at_ms, .. }
            | ChaosEvent::Outage { at_ms, .. }
            | ChaosEvent::Slow { at_ms, .. }
            | ChaosEvent::TornWrite { at_ms, .. }
            | ChaosEvent::CorruptImage { at_ms, .. }
            | ChaosEvent::CrashCkpt { at_ms, .. }
            | ChaosEvent::Replica { at_ms, .. } => at_ms,
        }
    }

    /// Postpone the injection instant by `ms` (shrinking toward "fails as
    /// late as possible").
    pub fn delay(&mut self, ms: u64) {
        match self {
            ChaosEvent::Crash { at_ms, .. }
            | ChaosEvent::Storm { at_ms, .. }
            | ChaosEvent::Outage { at_ms, .. }
            | ChaosEvent::Slow { at_ms, .. }
            | ChaosEvent::TornWrite { at_ms, .. }
            | ChaosEvent::CorruptImage { at_ms, .. }
            | ChaosEvent::CrashCkpt { at_ms, .. }
            | ChaosEvent::Replica { at_ms, .. } => *at_ms += ms,
        }
    }

    /// The compact string form of this event.
    pub fn format(&self) -> String {
        match *self {
            ChaosEvent::Crash { at_ms, group } => format!("crash:g{group}@{at_ms}"),
            ChaosEvent::Storm {
                at_ms,
                dur_ms,
                factor,
            } => {
                format!("storm:x{factor}@{at_ms}+{dur_ms}")
            }
            ChaosEvent::Outage {
                at_ms,
                dur_ms,
                server,
            } => {
                format!("outage:s{server}@{at_ms}+{dur_ms}")
            }
            ChaosEvent::Slow {
                at_ms,
                dur_ms,
                node,
                factor,
            } => {
                format!("slow:n{node}x{factor}@{at_ms}+{dur_ms}")
            }
            ChaosEvent::TornWrite { at_ms, node, count } => {
                format!("torn:n{node}x{count}@{at_ms}")
            }
            ChaosEvent::CorruptImage { at_ms, group } => format!("corrupt:g{group}@{at_ms}"),
            ChaosEvent::CrashCkpt {
                at_ms,
                group,
                phase,
            } => {
                format!("crashckpt:g{group}p{phase}@{at_ms}")
            }
            ChaosEvent::Replica {
                at_ms,
                group,
                crash_phase,
            } => match crash_phase {
                Some(p) => format!("replica:g{group}p{p}@{at_ms}"),
                None => format!("replica:g{group}@{at_ms}"),
            },
        }
    }
}

/// Format a schedule as a `;`-joined compact string (empty for no events).
pub fn format_schedule(events: &[ChaosEvent]) -> String {
    events
        .iter()
        .map(ChaosEvent::format)
        .collect::<Vec<_>>()
        .join(";")
}

/// Parse the compact schedule form; the inverse of [`format_schedule`].
/// An empty string parses to an empty schedule.
pub fn parse_schedule(s: &str) -> Result<Vec<ChaosEvent>, String> {
    let mut out = Vec::new();
    for part in s.split(';') {
        let part = part.trim();
        if part.is_empty() {
            continue;
        }
        out.push(parse_event(part)?);
    }
    Ok(out)
}

fn parse_event(s: &str) -> Result<ChaosEvent, String> {
    let (kind, rest) = s
        .split_once(':')
        .ok_or_else(|| format!("event `{s}`: expected `kind:...`"))?;
    let (head, times) = rest
        .split_once('@')
        .ok_or_else(|| format!("event `{s}`: expected `...@time`"))?;
    let num = |txt: &str| -> Result<u64, String> {
        txt.parse::<u64>()
            .map_err(|_| format!("event `{s}`: bad number `{txt}`"))
    };
    // Storm and slowdown factors multiply nominal behaviour: below 1
    // they would speed the cluster up, which the network model forbids.
    let multiplier = |txt: &str| -> Result<u64, String> {
        match num(txt)? {
            0 => Err(format!("event `{s}`: factor must be at least 1")),
            f => Ok(f),
        }
    };
    let window = |txt: &str| -> Result<(u64, u64), String> {
        let (at, dur) = txt
            .split_once('+')
            .ok_or_else(|| format!("event `{s}`: expected `@start+dur`"))?;
        Ok((num(at)?, num(dur)?))
    };
    match kind {
        "crash" => {
            let group = num(head
                .strip_prefix('g')
                .ok_or_else(|| format!("event `{s}`: expected `crash:g<group>@<ms>`"))?)?;
            Ok(ChaosEvent::Crash {
                at_ms: num(times)?,
                group,
            })
        }
        "storm" => {
            let factor =
                multiplier(head.strip_prefix('x').ok_or_else(|| {
                    format!("event `{s}`: expected `storm:x<factor>@<ms>+<dur>`")
                })?)?;
            let (at_ms, dur_ms) = window(times)?;
            Ok(ChaosEvent::Storm {
                at_ms,
                dur_ms,
                factor,
            })
        }
        "outage" => {
            let server = num(head
                .strip_prefix('s')
                .ok_or_else(|| format!("event `{s}`: expected `outage:s<server>@<ms>+<dur>`"))?)?;
            let (at_ms, dur_ms) = window(times)?;
            Ok(ChaosEvent::Outage {
                at_ms,
                dur_ms,
                server,
            })
        }
        "slow" => {
            let body = head.strip_prefix('n').ok_or_else(|| {
                format!("event `{s}`: expected `slow:n<node>x<factor>@<ms>+<dur>`")
            })?;
            let (node, factor) = body
                .split_once('x')
                .ok_or_else(|| format!("event `{s}`: expected `n<node>x<factor>`"))?;
            let (at_ms, dur_ms) = window(times)?;
            Ok(ChaosEvent::Slow {
                at_ms,
                dur_ms,
                node: num(node)?,
                factor: multiplier(factor)?,
            })
        }
        "torn" => {
            let body = head
                .strip_prefix('n')
                .ok_or_else(|| format!("event `{s}`: expected `torn:n<node>x<count>@<ms>`"))?;
            let (node, count) = body
                .split_once('x')
                .ok_or_else(|| format!("event `{s}`: expected `n<node>x<count>`"))?;
            Ok(ChaosEvent::TornWrite {
                at_ms: num(times)?,
                node: num(node)?,
                count: num(count)?,
            })
        }
        "corrupt" => {
            let group = num(head
                .strip_prefix('g')
                .ok_or_else(|| format!("event `{s}`: expected `corrupt:g<group>@<ms>`"))?)?;
            Ok(ChaosEvent::CorruptImage {
                at_ms: num(times)?,
                group,
            })
        }
        "crashckpt" => {
            let body = head.strip_prefix('g').ok_or_else(|| {
                format!("event `{s}`: expected `crashckpt:g<group>p<phase>@<ms>`")
            })?;
            let (group, phase) = body
                .split_once('p')
                .ok_or_else(|| format!("event `{s}`: expected `g<group>p<phase>`"))?;
            let phase = num(phase)?;
            if phase > 2 {
                return Err(format!("event `{s}`: phase must be 0, 1 or 2"));
            }
            Ok(ChaosEvent::CrashCkpt {
                at_ms: num(times)?,
                group: num(group)?,
                phase,
            })
        }
        "replica" => {
            let body = head.strip_prefix('g').ok_or_else(|| {
                format!("event `{s}`: expected `replica:g<group>[p<phase>]@<ms>`")
            })?;
            let (group, crash_phase) = match body.split_once('p') {
                Some((g, p)) => {
                    let phase = num(p)?;
                    if phase > 1 {
                        return Err(format!("event `{s}`: rebuild phase must be 0 or 1"));
                    }
                    (num(g)?, Some(phase))
                }
                None => (num(body)?, None),
            };
            Ok(ChaosEvent::Replica {
                at_ms: num(times)?,
                group,
                crash_phase,
            })
        }
        other => Err(format!("unknown event kind `{other}` in `{s}`")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_all_kinds() {
        let sched = vec![
            ChaosEvent::Crash {
                at_ms: 2500,
                group: 1,
            },
            ChaosEvent::Storm {
                at_ms: 1000,
                dur_ms: 4000,
                factor: 8,
            },
            ChaosEvent::Outage {
                at_ms: 2000,
                dur_ms: 3000,
                server: 0,
            },
            ChaosEvent::Slow {
                at_ms: 1500,
                dur_ms: 2500,
                node: 3,
                factor: 4,
            },
            ChaosEvent::TornWrite {
                at_ms: 1800,
                node: 2,
                count: 3,
            },
            ChaosEvent::CorruptImage {
                at_ms: 2500,
                group: 1,
            },
            ChaosEvent::CrashCkpt {
                at_ms: 2000,
                group: 1,
                phase: 1,
            },
            ChaosEvent::Replica {
                at_ms: 1500,
                group: 2,
                crash_phase: None,
            },
            ChaosEvent::Replica {
                at_ms: 1700,
                group: 0,
                crash_phase: Some(1),
            },
        ];
        let s = format_schedule(&sched);
        assert_eq!(
            s,
            "crash:g1@2500;storm:x8@1000+4000;outage:s0@2000+3000;slow:n3x4@1500+2500;\
             torn:n2x3@1800;corrupt:g1@2500;crashckpt:g1p1@2000;replica:g2@1500;\
             replica:g0p1@1700"
        );
        assert_eq!(parse_schedule(&s).unwrap(), sched);
    }

    #[test]
    fn empty_schedule() {
        assert!(parse_schedule("").unwrap().is_empty());
        assert_eq!(format_schedule(&[]), "");
    }

    #[test]
    fn rejects_malformed() {
        assert!(parse_schedule("crash:1@2500").is_err());
        assert!(parse_schedule("storm:x8@1000").is_err());
        assert!(parse_schedule("boom:g1@1").is_err());
        assert!(parse_schedule("crash:g1").is_err());
        assert!(parse_schedule("torn:2x3@1800").is_err());
        assert!(parse_schedule("torn:n2@1800").is_err());
        assert!(parse_schedule("corrupt:1@2500").is_err());
        assert!(parse_schedule("crashckpt:g1@2000").is_err());
        assert!(parse_schedule("crashckpt:g1p3@2000").is_err());
        assert!(parse_schedule("replica:1@1500").is_err());
        assert!(parse_schedule("replica:g1p2@1500").is_err());
        assert!(parse_schedule("replica:g1p@1500").is_err());
        // A factor below 1 would speed the cluster up; 1 is nominal speed.
        for bad in ["slow:n0x0@10+5", "storm:x0@1+1"] {
            assert!(parse_schedule(bad).unwrap_err().contains(bad));
        }
        assert!(parse_schedule("slow:n0x1@10+5;storm:x1@1+1").is_ok());
    }

    #[test]
    fn delay_moves_injection_later() {
        let mut e = ChaosEvent::Crash {
            at_ms: 100,
            group: 0,
        };
        e.delay(400);
        assert_eq!(e.at_ms(), 500);
    }
}
