//! Fixture: the same frame record copies into a fixed inline buffer —
//! no allocation anywhere under `ShardRecorder::record_frame`.

pub struct ShardRecorder;

impl ShardRecorder {
    pub fn record_frame(&mut self, wire: &[u8]) {
        self.store(wire);
    }

    fn store(&mut self, wire: &[u8]) {
        let mut len = 0;
        for (slot, b) in self.last.iter_mut().zip(wire) {
            *slot = *b;
            len += 1;
        }
        self.last_len = len;
    }
}
