//! Profile export: turn a [`ProfileReport`] into CSV rows or a Chrome
//! trace-viewer JSON document (`chrome://tracing`, Perfetto), the modern
//! equivalent of the paper's "device event timing infrastructure" output.

use crate::event::{EventKind, ProfileReport};

impl EventKind {
    /// Stable lowercase tag used in exports.
    pub fn tag(&self) -> &'static str {
        match self {
            EventKind::HostToDevice => "h2d",
            EventKind::DeviceToHost => "d2h",
            EventKind::KernelExec => "kernel",
            EventKind::KernelCompile => "compile",
        }
    }
}

impl ProfileReport {
    /// Render events as CSV: `kind,label,bytes,t_start_s,t_end_s,seconds`.
    pub fn to_csv(&self) -> String {
        let mut out = String::from("kind,label,bytes,t_start_s,t_end_s,seconds\n");
        for e in &self.events {
            out.push_str(&format!(
                "{},{},{},{:.9},{:.9},{:.9}\n",
                e.kind.tag(),
                e.label.replace(',', ";"),
                e.bytes,
                e.t_start,
                e.t_end,
                e.seconds()
            ));
        }
        out
    }

    /// Render events as a Chrome trace-viewer JSON array of complete (`X`)
    /// events. Transfers and kernels land on separate tracks (`tid`), with
    /// timestamps in microseconds as the format requires.
    pub fn to_chrome_trace(&self) -> String {
        let mut out = String::from("[");
        for (i, e) in self.events.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let tid = match e.kind {
                EventKind::HostToDevice | EventKind::DeviceToHost => 1,
                EventKind::KernelExec => 2,
                EventKind::KernelCompile => 3,
            };
            out.push_str(&format!(
                "{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":{},\
                 \"ts\":{:.3},\"dur\":{:.3},\"args\":{{\"bytes\":{}}}}}",
                e.label.replace('"', "'"),
                e.kind.tag(),
                tid,
                e.t_start * 1e6,
                e.seconds() * 1e6,
                e.bytes
            ));
        }
        out.push(']');
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::Event;

    fn report() -> ProfileReport {
        ProfileReport {
            events: vec![
                Event {
                    kind: EventKind::HostToDevice,
                    label: "write".into(),
                    bytes: 1024,
                    t_start: 0.0,
                    t_end: 0.001,
                    queue: 0,
                },
                Event {
                    kind: EventKind::KernelExec,
                    label: "grad3d".into(),
                    bytes: 4096,
                    t_start: 0.001,
                    t_end: 0.003,
                    queue: 0,
                },
            ],
            high_water_bytes: 8192,
            ..Default::default()
        }
    }

    #[test]
    fn csv_has_header_and_rows() {
        let csv = report().to_csv();
        let lines: Vec<&str> = csv.lines().collect();
        assert_eq!(lines.len(), 3);
        assert!(lines[0].starts_with("kind,label,bytes"));
        assert!(lines[1].starts_with("h2d,write,1024,"));
        assert!(lines[2].starts_with("kernel,grad3d,4096,"));
    }

    #[test]
    fn csv_escapes_commas_in_labels() {
        let mut r = report();
        r.events[0].label = "a,b".into();
        let csv = r.to_csv();
        assert!(csv.contains("h2d,a;b,"));
    }

    #[test]
    fn chrome_trace_is_wellformed_enough() {
        let json = report().to_chrome_trace();
        assert!(json.starts_with('['));
        assert!(json.ends_with(']'));
        assert!(json.contains("\"ph\":\"X\""));
        assert!(json.contains("\"name\":\"grad3d\""));
        // Microsecond conversion.
        assert!(json.contains("\"ts\":1000.000"));
        // Balanced braces (cheap structural check).
        assert_eq!(json.matches('{').count(), json.matches('}').count());
    }

    #[test]
    fn empty_report_exports() {
        let r = ProfileReport::default();
        assert_eq!(r.to_chrome_trace(), "[]");
        assert_eq!(r.to_csv().lines().count(), 1);
    }
}
