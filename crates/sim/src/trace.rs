//! Execution traces: per-step busy intervals and an ASCII Gantt
//! renderer, for debugging schedules and illustrating the serialization
//! the paper analyzes (a shared pivot shows up as one long lane while
//! the other contexts idle).

use crate::{TaskId, VTime};
use serde::{Deserialize, Serialize};

/// One busy interval: a task occupying a context for `[start, end)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct Span {
    /// The executing task.
    pub task: TaskId,
    /// The context it ran on.
    pub context: usize,
    /// Step start (virtual time).
    pub start: VTime,
    /// Step end (`start + cost`).
    pub end: VTime,
}

/// Renders spans as one ASCII lane per context. Each column covers
/// `(t_max - t_min) / width` virtual time; a cell shows the last task
/// active in that slice (as a letter cycling `a..z`), or `.` for idle.
pub fn render_gantt(spans: &[Span], contexts: usize, width: usize) -> String {
    if spans.is_empty() || width == 0 {
        return String::from("(no trace)\n");
    }
    let t0 = spans.iter().map(|s| s.start).min().unwrap_or(0);
    let t1 = spans.iter().map(|s| s.end).max().unwrap_or(1).max(t0 + 1);
    let scale = (t1 - t0) as f64 / width as f64;
    let mut lanes = vec![vec![b'.'; width]; contexts];
    for s in spans {
        if s.context >= contexts {
            continue;
        }
        let glyph = b'a' + (s.task.index() % 26) as u8;
        let c0 = (((s.start - t0) as f64) / scale) as usize;
        let c1 = ((((s.end - t0) as f64) / scale).ceil() as usize).clamp(c0 + 1, width);
        for cell in &mut lanes[s.context][c0.min(width - 1)..c1] {
            *cell = glyph;
        }
    }
    let mut out = String::new();
    out.push_str(&format!(
        "t = {t0}..{t1} ({} per col)\n",
        ((t1 - t0) as f64 / width as f64).round()
    ));
    for (i, lane) in lanes.iter().enumerate() {
        out.push_str(&format!("ctx {i:>2} |{}|\n", String::from_utf8_lossy(lane)));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(task: usize, context: usize, start: VTime, end: VTime) -> Span {
        Span {
            task: TaskId(task),
            context,
            start,
            end,
        }
    }

    #[test]
    fn gantt_marks_busy_and_idle() {
        let spans = vec![span(0, 0, 0, 50), span(1, 1, 50, 100)];
        let g = render_gantt(&spans, 2, 10);
        let lines: Vec<&str> = g.lines().collect();
        assert_eq!(lines.len(), 3);
        // Context 0 busy in the first half, idle after.
        assert!(lines[1].contains("aaaaa"));
        assert!(lines[1].contains('.'));
        // Context 1 the mirror image with task 'b'.
        assert!(lines[2].contains("bbbbb"));
    }

    #[test]
    fn empty_trace_renders_placeholder() {
        assert_eq!(render_gantt(&[], 4, 40), "(no trace)\n");
    }

    #[test]
    fn out_of_range_contexts_ignored() {
        let spans = vec![span(0, 7, 0, 10)];
        let g = render_gantt(&spans, 2, 10);
        assert!(g.contains("ctx  0"));
    }
}
