//! Clean: well-formed metric names and lookalikes in strings.
fn record(rec: &mut Recorder) {
    rec.counter("mining.iso.calls").incr(1);
    rec.histogram("scoring.greedy.probes_per_call").record(2);
    rec.event("flight.ckpt.write", "mining", 1);
    let doc = ".counter(\"bad\")"; // a string, not a call
    let _ = doc;
}

struct Recorder;
