"""The session engine and its harness: replay, live serving, reports, command line."""
