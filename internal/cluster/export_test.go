package cluster

// EncodeFrame and DecodeFrame expose the wire codec to the external tests,
// which post frames to a node and read its replies.
func EncodeFrame(m Message) []byte { return m.appendFrame(nil) }

func DecodeFrame(body []byte, m Message) error { return decodeFrame(body, m) }
