fn record(rec: &mut Recorder) {
    rec.counter("badname").incr(1);
    rec.histogram("Two.Part").record(2);
    flight::event("badflightname", "", 0);
}

struct Recorder;
