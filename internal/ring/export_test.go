package ring

import "ringrpq/internal/serial"

// Encode writes the shard container DecodeShardSet reads (the payload
// of the rdbs1 format): header, partitioner name, then each sub-ring.
// Only older builds wrote it; the tests keep the writer to produce
// containers for the decoder.
func (s *ShardSet) Encode(w *serial.Writer) {
	w.Magic("rss1")
	w.Int(s.K)
	w.String(s.Part.Name())
	w.Int(s.N)
	w.Int(s.NumNodes)
	w.Uvarint(uint64(s.NumPreds))
	for _, r := range s.Shards {
		r.Encode(w)
	}
}
