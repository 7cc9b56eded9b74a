fn nap() {
    // alc-lint: allow(sleep, reason="backoff in the live gate, never reached by the simulator")
    std::thread::sleep(std::time::Duration::from_millis(5));
}

use std::thread as t;
fn nap_aliased(d: std::time::Duration) {
    // alc-lint: allow(sleep, reason="backoff in the live gate, never reached by the simulator")
    t::sleep(d);
}
