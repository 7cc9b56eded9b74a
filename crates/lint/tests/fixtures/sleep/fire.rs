fn nap() {
    std::thread::sleep(std::time::Duration::from_millis(5));
}

use std::thread as t;
fn nap_aliased(d: std::time::Duration) {
    t::sleep(d);
}
