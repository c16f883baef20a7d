//! Fixture: the shard's frame record allocates per frame — a
//! `.to_vec()` hiding one call below `ShardRecorder::record_frame`.

pub struct ShardRecorder;

impl ShardRecorder {
    pub fn record_frame(&mut self, wire: &[u8]) {
        self.store(wire);
    }

    fn store(&mut self, wire: &[u8]) {
        self.last = wire.to_vec();
    }
}
