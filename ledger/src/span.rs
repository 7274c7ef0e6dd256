//! In-memory span recorder of the traced run: name, start, end, the span
//! that caused it, and the request all spans of one round trip share.
//! Spans are kept in a `Vec` and written out when the run ends.

use std::io::{self, Write};
use std::time::Instant;

#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub id: u32,
    /// 0 = a root span.
    pub parent: u32,
    pub request: u64,
}

pub struct Spans {
    epoch: Instant,
    next_id: u32,
    pub spans: Vec<Span>,
}

impl Spans {
    pub fn new(epoch: Instant) -> Spans {
        Spans {
            epoch,
            next_id: 1,
            spans: Vec::new(),
        }
    }

    pub fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Allocate the id of a span that is still running, so that its
    /// children can name it as their parent before it closes.
    pub fn open(&mut self) -> u32 {
        let id = self.next_id;
        self.next_id += 1;
        id
    }

    pub fn close(
        &mut self,
        id: u32,
        name: &'static str,
        (start_ns, end_ns): (u64, u64),
        parent: u32,
        request: u64,
    ) {
        self.spans.push(Span {
            name,
            start_ns,
            end_ns,
            id,
            parent,
            request,
        });
    }

    /// A span without children.
    pub fn leaf(&mut self, name: &'static str, interval: (u64, u64), parent: u32, request: u64) {
        let id = self.open();
        self.close(id, name, interval, parent, request);
    }
}

/// Self time per span name: a span's duration minus the part its children
/// cover. Returns `(name, calls, total_self_ns)` in first-seen order.
pub fn self_times(spans: &[Span]) -> Vec<(&'static str, u64, u64)> {
    let max_id = spans.iter().map(|s| s.id).max().unwrap_or(0) as usize;
    let mut child_ns = vec![0u64; max_id + 1];
    for s in spans {
        child_ns[s.parent as usize] += s.end_ns - s.start_ns;
    }
    let mut out: Vec<(&'static str, u64, u64)> = Vec::new();
    for s in spans {
        let own = (s.end_ns - s.start_ns).saturating_sub(child_ns[s.id as usize]);
        match out.iter_mut().find(|(name, _, _)| *name == s.name) {
            Some(row) => {
                row.1 += 1;
                row.2 += own;
            }
            None => out.push((s.name, 1, own)),
        }
    }
    out
}

/// `thread,name,id,parent,request,start_ns,end_ns` lines.
pub fn write_csv(out: &mut impl Write, thread: usize, spans: &[Span]) -> io::Result<()> {
    for s in spans {
        writeln!(
            out,
            "{thread},{},{},{},{},{},{}",
            s.name, s.id, s.parent, s.request, s.start_ns, s.end_ns
        )?;
    }
    Ok(())
}
