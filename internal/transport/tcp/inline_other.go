//go:build !linux

package tcp

import "net"

// inlineConn leaves the connection as dialed: off Linux no frame is
// written inline, and every frame goes through the peer's writer.
func inlineConn(c net.Conn) net.Conn { return c }
