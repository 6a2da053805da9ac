"""A fixed HTTP endpoint that status polls are timed against.

Serves one canned JSON body, one request per connection, from the
single-threaded stdlib server: the same loopback, client and Python
HTTP handling a status poll pays, with none of the service's work.
Prints its port on the first line of standard output, then serves until
terminated.  Started by ``phases.served_phase``.
"""

from __future__ import annotations

import http.server

BODY = b'{"reference": "' + b"x" * 1000 + b'"}'


class Handler(http.server.BaseHTTPRequestHandler):
    def do_GET(self) -> None:
        self.send_response(200)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(BODY)))
        self.send_header("Connection", "close")
        self.end_headers()
        self.wfile.write(BODY)

    def log_message(self, *args) -> None:
        pass


if __name__ == "__main__":
    server = http.server.HTTPServer(("127.0.0.1", 0), Handler)
    print(server.server_address[1], flush=True)
    server.serve_forever()
