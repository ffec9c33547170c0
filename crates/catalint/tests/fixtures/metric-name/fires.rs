fn record(rec: &mut Recorder) {
    rec.counter("badname").incr(1);
    rec.histogram("Two.Part").record(2);
    rec.event("badeventname", "", 0);
}

struct Recorder;
